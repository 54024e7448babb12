package telemetry

import (
	"encoding/json"
	"io"
)

// Trace lanes: spans render as one pseudo-thread per pipeline component so
// a loaded trace reads like the platform's block diagram. Chrome's trace
// viewer and Perfetto sort threads by tid.
const (
	laneSwitchData = 1 // ingress / forward / miss / egress
	laneBuffer     = 2 // buffer enqueue / drain / rerequest / giveup
	laneControlUp  = 3 // packet_in departure, controller RTT
	laneController = 4 // controller service
	laneControlDn  = 5 // flow_mod / packet_out arrival
	laneFlows      = 6 // derived flow-setup spans
	laneSwitchCPU  = 7 // switch-CPU service intervals
	laneCtlCPU     = 8 // controller-CPU service intervals
)

func laneFor(k SpanKind) int {
	switch k {
	case KindIngress, KindForward, KindMiss, KindEgress:
		return laneSwitchData
	case KindBufferEnqueue, KindBufferDrain, KindRerequest, KindGiveup:
		return laneBuffer
	case KindPacketIn, KindControllerRTT:
		return laneControlUp
	case KindControllerService:
		return laneController
	case KindFlowMod, KindPacketOut:
		return laneControlDn
	case KindFlowSetup:
		return laneFlows
	case KindSwitchCPU:
		return laneSwitchCPU
	case KindControllerCPU:
		return laneCtlCPU
	default:
		return 0
	}
}

var laneNames = map[int]string{
	laneSwitchData: "switch datapath",
	laneBuffer:     "switch buffer",
	laneControlUp:  "control path (to controller)",
	laneController: "controller",
	laneControlDn:  "control path (to switch)",
	laneFlows:      "flows",
	laneSwitchCPU:  "switch CPU",
	laneCtlCPU:     "controller CPU",
}

// traceEvent is one entry of the Chrome trace_event JSON array format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" is a complete (duration) event, ph "i" an instant, ph "M"
// metadata. Timestamps and durations are microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteTrace writes the spans as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto. Virtual time maps directly to trace time
// (µs); spans land on one pseudo-thread per platform component.
func WriteTrace(w io.Writer, spans []Span) error {
	events := make([]traceEvent, 0, len(spans)+len(laneNames))
	for tid := laneSwitchData; tid <= laneCtlCPU; tid++ {
		events = append(events, traceEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"name": laneNames[tid]},
		})
	}
	for _, s := range spans {
		ev := traceEvent{
			Name: s.Kind.String(),
			Cat:  "lifecycle",
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  laneFor(s.Kind),
			Args: map[string]any{
				"flow":  s.Flow,
				"ref":   s.Ref,
				"bytes": s.Bytes,
			},
		}
		if d := s.Duration(); d > 0 {
			ev.Phase = "X"
			ev.Dur = float64(d.Nanoseconds()) / 1e3
		} else {
			ev.Phase = "i"
			ev.Scope = "t"
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
