// Package testbed assembles the paper's experimental platform (Fig. 1) in
// simulation: Host1 and Host2 attached to the software switch by 100 Mbps
// links, the switch attached to the controller by a control link, tcpdump
// sniffers on the control channel, and pktgen-style workloads replayed from
// a schedule. One Run produces every metric the paper defines in §III.B.
// There is one wiring: Fabric realizes any topology, and the Fig. 1
// Testbed is its one-switch line.
//
// A Testbed (like the sim kernel it wraps) is confined to one goroutine,
// but independent instances share no mutable state: experiments may
// assemble and run one testbed per goroutine concurrently.
package testbed

import (
	"fmt"
	"time"

	"sdnbuffer/internal/capture"
	"sdnbuffer/internal/chaos"
	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/metrics"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/telemetry"
	"sdnbuffer/internal/topo"
)

// Config describes one testbed instance.
type Config struct {
	// Seed drives the deterministic kernel.
	Seed int64
	// HostLinkMbps is the host-switch link bandwidth (paper: 100 Mbps).
	HostLinkMbps float64
	// HostLinkPropagation is the host-switch one-way latency.
	HostLinkPropagation time.Duration
	// ControlLinkMbps is the switch-controller link bandwidth.
	ControlLinkMbps float64
	// ControlLinkPropagation is the switch-controller one-way latency.
	ControlLinkPropagation time.Duration
	// Switch is the switch resource model (zero value: DefaultSimConfig
	// with the Datapath left as provided).
	Switch switchd.SimConfig
	// Controller is the controller resource model.
	Controller controller.SimConfig
	// ControlLossRate drops each control message independently with this
	// probability (both directions). The paper's re-request timer
	// (Algorithm 1 line 12) exists exactly for this failure mode.
	ControlLossRate float64
	// Chaos layers a fault plan over the control path: link impairments on
	// both directions of every control link, controller-side stall/drop/crash
	// windows (one injector per controller shard), and switch-visible outage
	// windows that flip every datapath into its fail mode. Nil means no
	// injected faults. A plan with zero loss leaves ControlLossRate in force
	// (the impairment merge rule), so outage or reorder scenarios compose
	// with the legacy loss knob.
	Chaos *chaos.Plan
	// Forwarder configures the rules the controller installs (timeouts,
	// priority, match shape, combined flow_mod). Routing comes from the
	// topology, so Routes is ignored.
	Forwarder controller.ForwarderConfig
	// Drain bounds how long the run may continue after the last emission to
	// let in-flight work finish (default 2s of virtual time).
	Drain time.Duration
	// Telemetry, when non-nil, wires a packet-lifecycle recorder through the
	// platform (switch, buffer mechanism, controller) and enables the
	// process-wide telemetry gate. Recording is purely observational — it
	// schedules no kernel events and draws no randomness — so results and
	// event order are identical with or without it.
	Telemetry *telemetry.Config
}

// DefaultConfig returns the paper's platform parameters with the given
// buffer setup.
func DefaultConfig(buffer openflow.FlowBufferConfig, bufferCapacity int) Config {
	sw := switchd.DefaultSimConfig()
	sw.Datapath = switchd.Config{
		DatapathID:     1,
		NumPorts:       2,
		Buffer:         buffer,
		BufferCapacity: bufferCapacity,
	}
	return Config{
		Seed:                   1,
		HostLinkMbps:           100,
		HostLinkPropagation:    20 * time.Microsecond,
		ControlLinkMbps:        100,
		ControlLinkPropagation: 500 * time.Microsecond,
		Switch:                 sw,
		Controller:             controller.DefaultSimConfig(),
	}
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.HostLinkMbps <= 0 || out.ControlLinkMbps <= 0 {
		return out, fmt.Errorf("testbed: link bandwidths must be positive")
	}
	if out.Drain == 0 {
		out.Drain = 2 * time.Second
	}
	return out, nil
}

// Result carries the paper's §III.B metrics for one run.
type Result struct {
	// Elapsed is the measurement window (virtual time from start to
	// quiescence).
	Elapsed time.Duration
	// SendingWindow is the nominal emission span of the workload.
	SendingWindow time.Duration

	// CtrlLoadToControllerMbps is Fig. 2(a)/9(a): packet_in traffic.
	CtrlLoadToControllerMbps float64
	// CtrlLoadToSwitchMbps is Fig. 2(b)/9(b): flow_mod + packet_out traffic.
	CtrlLoadToSwitchMbps float64
	// ControllerUsagePercent is Fig. 3/10.
	ControllerUsagePercent float64
	// SwitchUsagePercent is Fig. 4/11.
	SwitchUsagePercent float64
	// FlowSetupDelay (seconds) is Fig. 5/12(a): first packet in → first
	// packet out, per flow.
	FlowSetupDelay metrics.Summary
	// ControllerDelay (seconds) is Fig. 6: packet_in out → first response
	// in, per request, measured at the switch.
	ControllerDelay metrics.Summary
	// SwitchDelayMean (seconds) is Fig. 7: the paper defines it as the
	// difference between the flow setup delay and the controller delay.
	SwitchDelayMean float64
	// FlowForwardingDelay (seconds) is Fig. 12(b): first packet in → last
	// packet of the flow out, per flow.
	FlowForwardingDelay metrics.Summary
	// BufferOccupancyMean / Max are Fig. 8/13: buffer units in use.
	BufferOccupancyMean float64
	BufferOccupancyMax  float64

	// Bookkeeping for verification.
	PacketIns       int64
	FlowMods        int64
	PacketOuts      int64
	Rerequests      uint64
	BufferFallbacks uint64
	FramesSent      int
	FramesDelivered int64
	FlowsObserved   int

	// Resilience bookkeeping (all zero on a healthy run).
	//
	// Giveups counts flows whose re-request budget ran out (the hardened
	// mechanism released their buffer and fell back to full-packet
	// packet_ins). BufferUnitsLeaked is the pool occupancy at quiescence —
	// the acceptance criterion demands zero. DupEmissions counts workload
	// frames the switch emitted more than once; OrderViolations counts
	// emissions whose per-flow sequence number went backwards.
	Giveups           uint64
	BufferUnitsLeaked int
	DupEmissions      int64
	OrderViolations   int64
	// StandaloneForwards / ControlDownMisses sum the datapaths' fail-mode
	// counters; CtrlStalled/Dropped/Crashed sum the shards' chaos injectors.
	StandaloneForwards uint64
	ControlDownMisses  uint64
	CtrlStalled        int64
	CtrlDropped        int64
	CtrlCrashed        int64

	// Byte fields mirror the pool's byte accounting; BufferBytesLeaked is
	// the pool's byte occupancy at quiescence and must be zero.
	BufferBytesHighWater uint64
	BufferRejectedBytes  uint64
	BufferBytesLeaked    int64
}

// Testbed is the paper's Fig. 1 platform: the one-switch "line:1" Fabric,
// Host1 (topology host 0, 10.0.0.1) — switch — Host2 (host 1, 10.0.0.2)
// under one controller. Switch port 1 faces Host1 and port 2 Host2.
type Testbed struct {
	fb *Fabric
}

// New assembles the Fig. 1 platform.
func New(cfg Config) (*Testbed, error) {
	g, err := topo.Build(topo.Spec{Kind: topo.KindLine, Switches: 1})
	if err != nil {
		return nil, err
	}
	fb, err := NewFabric(cfg, FabricOptions{Graph: g})
	if err != nil {
		return nil, err
	}
	return &Testbed{fb: fb}, nil
}

// Kernel exposes the event kernel (for composing extra scenario events).
func (tb *Testbed) Kernel() *sim.Kernel { return tb.fb.kernel }

// Switch exposes the simulated switch.
func (tb *Testbed) Switch() *switchd.SimSwitch { return tb.fb.sws[0] }

// Controller exposes the simulated controller.
func (tb *Testbed) Controller() *controller.SimController { return tb.fb.ctls[0] }

// Capture exposes the switch-side control-channel sniffers.
func (tb *Testbed) Capture() *capture.ControlChannel { return tb.fb.chans[0] }

// Telemetry exposes the packet-lifecycle recorder (nil unless
// Config.Telemetry was set). After Run, the recorder holds the span ring
// and the flushed flow records.
func (tb *Testbed) Telemetry() *telemetry.Recorder { return tb.fb.tel }

// Run replays a schedule from Host1 and runs the platform to quiescence,
// returning the metric set. Run may be called once per Testbed.
func (tb *Testbed) Run(sched pktgen.Schedule) (*Result, error) {
	fr, err := tb.fb.Run(sched)
	if err != nil {
		return nil, err
	}
	return &fr.Result, nil
}
