// Failure plans: a declarative schedule of data-plane faults — link-down
// windows and switch crash windows — applied to a fabric run. The plan is a
// pure description; the testbed translates it into kernel events, one per
// affected switch (DESIGN.md §16).
//
// Plans are spec-parseable so sweeps and command lines can name them:
//
//	link:0-1@5ms..15ms;switch:2@10ms..30ms
//
// Entries are ';'-separated. A link entry names the undirected switch pair
// A-B and the window during which the link is down in both directions; a
// switch entry names the switch and the window during which it is crashed
// (flow table and buffered packets are lost at crash time, and every
// neighbor sees its port to the switch go down). Windows use Go duration
// syntax with '..' between start and end. String renders the canonical form
// and round-trips through ParseFailurePlan.
package netem

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// LinkFailure takes the undirected link between switches A and B down for
// the window: frames in flight on either direction are dropped, and both
// endpoints observe the port facing the other side go down at w.Start and
// come back at w.End.
type LinkFailure struct {
	A, B   int
	Window Window
}

// SwitchFailure crashes switch Switch for the window: the flow table is
// cleared, buffered miss packets are lost, and frames arriving while down
// are dropped. At w.End the switch restarts empty.
type SwitchFailure struct {
	Switch int
	Window Window
}

// FailurePlan is a full fault schedule. The zero value injects nothing and
// leaves every run byte-identical to one without a plan.
type FailurePlan struct {
	Links    []LinkFailure
	Switches []SwitchFailure
}

// Empty reports whether the plan injects no faults.
func (p *FailurePlan) Empty() bool {
	return p == nil || (len(p.Links) == 0 && len(p.Switches) == 0)
}

// Validate rejects malformed entries: negative switch ids, self-loop links,
// and invalid windows (wrapping ErrInvalidWindow).
func (p *FailurePlan) Validate() error {
	if p == nil {
		return nil
	}
	for i, lf := range p.Links {
		if lf.A < 0 || lf.B < 0 {
			return fmt.Errorf("netem: failure plan link %d: negative switch in %d-%d", i, lf.A, lf.B)
		}
		if lf.A == lf.B {
			return fmt.Errorf("netem: failure plan link %d: self-loop %d-%d", i, lf.A, lf.B)
		}
		if err := lf.Window.Validate(); err != nil {
			return fmt.Errorf("netem: failure plan link %d-%d: %w", lf.A, lf.B, err)
		}
	}
	for i, sf := range p.Switches {
		if sf.Switch < 0 {
			return fmt.Errorf("netem: failure plan switch entry %d: negative switch %d", i, sf.Switch)
		}
		if err := sf.Window.Validate(); err != nil {
			return fmt.Errorf("netem: failure plan switch %d: %w", sf.Switch, err)
		}
	}
	return nil
}

// String renders the canonical spec form, round-tripping through
// ParseFailurePlan. An empty plan renders as "".
func (p *FailurePlan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, 0, len(p.Links)+len(p.Switches))
	for _, lf := range p.Links {
		parts = append(parts, fmt.Sprintf("link:%d-%d@%v..%v", lf.A, lf.B, lf.Window.Start, lf.Window.End))
	}
	for _, sf := range p.Switches {
		parts = append(parts, fmt.Sprintf("switch:%d@%v..%v", sf.Switch, sf.Window.Start, sf.Window.End))
	}
	return strings.Join(parts, ";")
}

// parseWindow parses "START..END" in Go duration syntax and validates it.
func parseWindow(s string) (Window, error) {
	start, end, ok := strings.Cut(s, "..")
	if !ok {
		return Window{}, fmt.Errorf("netem: window %q: want START..END", s)
	}
	st, err := time.ParseDuration(start)
	if err != nil {
		return Window{}, fmt.Errorf("netem: window %q: %v", s, err)
	}
	en, err := time.ParseDuration(end)
	if err != nil {
		return Window{}, fmt.Errorf("netem: window %q: %v", s, err)
	}
	w := Window{Start: st, End: en}
	if err := w.Validate(); err != nil {
		return Window{}, err
	}
	return w, nil
}

// ParseFailurePlan parses the spec syntax documented at the top of this
// file. The empty string (or only whitespace/empty entries) parses to an
// empty plan. The result always passes Validate.
func ParseFailurePlan(spec string) (*FailurePlan, error) {
	p := &FailurePlan{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("netem: failure plan entry %q: want link:... or switch:...", entry)
		}
		body, window, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("netem: failure plan entry %q: missing @WINDOW", entry)
		}
		w, err := parseWindow(window)
		if err != nil {
			return nil, fmt.Errorf("netem: failure plan entry %q: %w", entry, err)
		}
		switch kind {
		case "link":
			as, bs, ok := strings.Cut(body, "-")
			if !ok {
				return nil, fmt.Errorf("netem: failure plan entry %q: want link:A-B", entry)
			}
			a, err := strconv.Atoi(as)
			if err != nil {
				return nil, fmt.Errorf("netem: failure plan entry %q: bad switch %q", entry, as)
			}
			b, err := strconv.Atoi(bs)
			if err != nil {
				return nil, fmt.Errorf("netem: failure plan entry %q: bad switch %q", entry, bs)
			}
			p.Links = append(p.Links, LinkFailure{A: a, B: b, Window: w})
		case "switch":
			s, err := strconv.Atoi(body)
			if err != nil {
				return nil, fmt.Errorf("netem: failure plan entry %q: bad switch %q", entry, body)
			}
			p.Switches = append(p.Switches, SwitchFailure{Switch: s, Window: w})
		default:
			return nil, fmt.Errorf("netem: failure plan entry %q: unknown kind %q", entry, kind)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
