package topo

import (
	"fmt"
	"net/netip"
	"testing"
)

func build(t *testing.T, spec string) *Graph {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	g, err := Build(s)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	return g
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"line:1",
		"line:4",
		"leafspine:leaves=8,spines=4",
		"leafspine:leaves=8,spines=4,hosts=6",
		"fattree:pods=2,leaves=2,spines=2,cores=2",
		"random:nodes=12,extra=4,seed=7",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		if spec2, err := ParseSpec(spec.String()); err != nil || spec2 != spec {
			t.Errorf("re-parse of %q: %+v, %v", s, spec2, err)
		}
	}
	// line:switches=4 normalizes to the shorthand.
	spec, err := ParseSpec("line:switches=4")
	if err != nil || spec.String() != "line:4" {
		t.Errorf("line:switches=4 -> %q, %v", spec.String(), err)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"line",
		"line:",
		"line:0",
		"line:4,hosts=3",
		"mesh:nodes=4",
		"leafspine:leaves=8",         // missing spines
		"leafspine:pods=2",           // wrong key for kind
		"fattree:pods=1,leaves=1",    // missing spines/cores
		"random:nodes=4,extra=99999", // extra > 4×nodes
		"random:nodes=999999",        // over MaxSwitches
		"line:9999999999999999999999",
		"leafspine:leaves=-1,spines=2",
		"line:4x",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", s)
		}
	}
}

func TestLinePortConventions(t *testing.T) {
	// A line keeps Fig. 1's wiring: port 1 faces left (host 0 on the first
	// switch), port 2 faces right (host 1 on the last).
	g := build(t, "line:3")
	hosts := g.Hosts()
	if len(hosts) != 2 || hosts[0].Switch != 0 || hosts[0].Port != 1 || hosts[1].Switch != 2 || hosts[1].Port != 2 {
		t.Fatalf("line hosts = %+v", hosts)
	}
	// Hosts 0 and 1 carry Fig. 1's Host1 and Host2 addresses.
	if hosts[0].Addr != netip.MustParseAddr("10.0.0.1") || hosts[1].Addr != netip.MustParseAddr("10.0.0.2") {
		t.Errorf("host addrs = %v, %v", hosts[0].Addr, hosts[1].Addr)
	}
	for i := 0; i < 2; i++ {
		p, ok := g.PeerOf(i, 2)
		if !ok || p.Switch != i+1 || p.Port != 1 {
			t.Errorf("sw%d port 2 peer = %+v", i, p)
		}
	}
	hops, err := g.HostPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("line:3 path = %d hops", len(hops))
	}
	for i, h := range hops {
		if h.Switch != i || h.Entry != 1 || h.Exit != 2 {
			t.Errorf("hop %d = %+v", i, h)
		}
	}
}

func TestLeafSpinePathLengths(t *testing.T) {
	g := build(t, "leafspine:leaves=4,spines=2,hosts=4")
	if g.NumSwitches() != 6 {
		t.Fatalf("switches = %d", g.NumSwitches())
	}
	// Hosts land round-robin on leaves: different leaves → 3-switch path
	// (leaf, spine, leaf).
	hops, err := g.HostPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Errorf("cross-leaf path = %d switches, want 3", len(hops))
	}
}

func TestFatTreeCrossPodPath(t *testing.T) {
	g := build(t, "fattree:pods=2,leaves=2,spines=2,cores=2")
	if g.NumSwitches() != 10 {
		t.Fatalf("switches = %d", g.NumSwitches())
	}
	// Default hosts 0 and 1 land in different pods: leaf → spine → core →
	// spine → leaf.
	hops, err := g.HostPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 5 {
		t.Errorf("cross-pod path = %d switches, want 5", len(hops))
	}
}

// checkInvariants asserts the structural properties every built graph must
// hold: symmetric wiring, dense ports, valid host attachments, and
// loop-free exactly-terminating routes between every host pair.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumSwitches()
	for i := 0; i < n; i++ {
		for p := 1; p <= g.NumPorts(i); p++ {
			peer, ok := g.PeerOf(i, uint16(p))
			if !ok {
				t.Fatalf("sw%d port %d missing", i, p)
			}
			if peer.Switch >= 0 {
				back, ok := g.PeerOf(peer.Switch, peer.Port)
				if !ok || back.Switch != i || int(back.Port) != p {
					t.Fatalf("asymmetric edge sw%d:%d <-> sw%d:%d (back=%+v)", i, p, peer.Switch, peer.Port, back)
				}
			} else if peer.Host < 0 || peer.Host >= len(g.Hosts()) {
				t.Fatalf("sw%d port %d: bad host %d", i, p, peer.Host)
			}
		}
	}
	for hi, h := range g.Hosts() {
		peer, ok := g.PeerOf(h.Switch, h.Port)
		if !ok || peer.Host != hi {
			t.Fatalf("host %d attachment inconsistent: %+v", hi, peer)
		}
		if idx, ok := g.HostByAddr(h.Addr); !ok || idx != hi {
			t.Fatalf("HostByAddr(%v) = %d, %v", h.Addr, idx, ok)
		}
	}
	for src := range g.Hosts() {
		for dst := range g.Hosts() {
			if src == dst {
				continue
			}
			hops, err := g.HostPath(src, dst)
			if err != nil {
				t.Fatalf("HostPath(%d, %d): %v", src, dst, err)
			}
			if len(hops) > n {
				t.Fatalf("path %d->%d visits %d switches (> %d)", src, dst, len(hops), n)
			}
			seen := make(map[int]bool, len(hops))
			for _, hop := range hops {
				if seen[hop.Switch] {
					t.Fatalf("path %d->%d revisits switch %d", src, dst, hop.Switch)
				}
				seen[hop.Switch] = true
			}
			last := hops[len(hops)-1]
			if last.Switch != g.Hosts()[dst].Switch || last.Exit != g.Hosts()[dst].Port {
				t.Fatalf("path %d->%d ends at %+v, want host %d attachment", src, dst, last, dst)
			}
		}
	}
}

func TestBuiltGraphInvariants(t *testing.T) {
	for _, spec := range []string{
		"line:1", "line:5",
		"leafspine:leaves=1,spines=1",
		"leafspine:leaves=6,spines=3,hosts=5",
		"fattree:pods=3,leaves=2,spines=2,cores=4,hosts=6",
		"random:nodes=1,extra=0,seed=1,hosts=2",
	} {
		t.Run(spec, func(t *testing.T) { checkInvariants(t, build(t, spec)) })
	}
}

func TestRandomGraphsAreSeededAndSound(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		spec := fmt.Sprintf("random:nodes=%d,extra=%d,seed=%d,hosts=%d",
			3+seed%13, seed%7, seed, 2+seed%3)
		g := build(t, spec)
		checkInvariants(t, g)
		// Same seed, same wiring: rebuild and compare edges.
		g2 := build(t, spec)
		for i := 0; i < g.NumSwitches(); i++ {
			if g.NumPorts(i) != g2.NumPorts(i) {
				t.Fatalf("%s: rebuild differs at sw%d", spec, i)
			}
			for p := 1; p <= g.NumPorts(i); p++ {
				a, _ := g.PeerOf(i, uint16(p))
				b, _ := g2.PeerOf(i, uint16(p))
				if a != b {
					t.Fatalf("%s: rebuild differs at sw%d:%d (%+v vs %+v)", spec, i, p, a, b)
				}
			}
		}
	}
}

func TestRandomGraphNotConnectedImpossible(t *testing.T) {
	// The spanning-tree construction guarantees connectivity for any seed.
	for seed := int64(100); seed < 140; seed++ {
		if _, err := Build(Spec{Kind: KindRandom, Nodes: 30, ExtraEdges: 10, Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestParseInstallMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want InstallMode
	}{{"hop", InstallHopByHop}, {"path", InstallPath}} {
		got, err := ParseInstallMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseInstallMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParseInstallMode("bogus"); err == nil {
		t.Error("ParseInstallMode(bogus) succeeded")
	}
}
