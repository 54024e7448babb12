// Package sdnbuffer reproduces "Adopting SDN Switch Buffer: Benefits
// Analysis and Mechanism Design" (Li, Cao, Wang, Sun, Pan, Liu; ICDCS 2017 /
// IEEE TCC 2021): an OpenFlow switch buffer study and the proposed
// flow-granularity buffer mechanism, together with the full emulated
// testbed needed to regenerate every figure of the paper's evaluation.
//
// The package is a facade over the implementation:
//
//   - internal/core — the paper's contribution: the buffer pool and the
//     no-buffer / packet-granularity / flow-granularity mechanisms.
//   - internal/openflow — the OpenFlow 1.0 wire protocol plus the vendor
//     extension that configures the flow-granularity mechanism.
//   - internal/switchd, internal/controller — the software switch (Open
//     vSwitch role) and the controller (Floodlight role), each usable in
//     deterministic simulation or over live TCP.
//   - internal/testbed, internal/experiments — the paper's Fig. 1 platform
//     and the per-figure experiment definitions.
//
// Quick start:
//
//	report, err := sdnbuffer.Run(
//	    sdnbuffer.Platform{Mode: sdnbuffer.ModeFlowGranularity, BufferUnits: 256},
//	    sdnbuffer.BurstFlows(70, 50, 20, 5),
//	)
//
// Experiments:
//
//	res, err := sdnbuffer.RunExperiment("fig2a", sdnbuffer.ExperimentOptions{})
//	res.WriteTable(os.Stdout)
//
// Experiment sweeps run their independent (series, rate, repeat) cells on
// every core by default (ExperimentOptions.Parallelism); results are
// deterministic regardless of the worker count.
package sdnbuffer

import (
	"fmt"
	"net/netip"
	"time"

	"sdnbuffer/internal/experiments"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// Mode selects the switch buffer mechanism.
type Mode = openflow.BufferGranularity

// Buffer modes.
const (
	// ModeNoBuffer disables buffering: every miss-match packet travels in
	// full inside packet_in (the paper's baseline).
	ModeNoBuffer = openflow.GranularityNone
	// ModePacketGranularity is the OpenFlow default buffer: one unit and
	// one packet_in per miss-match packet.
	ModePacketGranularity = openflow.GranularityPacket
	// ModeFlowGranularity is the paper's proposed mechanism: one unit and
	// one packet_in per flow.
	ModeFlowGranularity = openflow.GranularityFlow
)

// Platform describes the emulated testbed of the paper's Fig. 1.
type Platform struct {
	// Mode selects the buffer mechanism.
	Mode Mode
	// BufferUnits is the buffer pool size (paper: 16 or 256; default 256).
	BufferUnits int
	// RerequestTimeout is the flow-granularity re-request timer (default
	// 50 ms; ignored in other modes).
	RerequestTimeout time.Duration
	// Seed makes runs reproducible (default 1).
	Seed int64
	// FlowTableCapacity bounds the switch flow table (0 = unbounded); with
	// a bound, LRU eviction applies — the §VI.B TCP scenario.
	FlowTableCapacity int
	// RuleIdleTimeout is the idle timeout the controller installs into
	// rules, in seconds (0 = none).
	RuleIdleTimeout uint16
	// ControlLossRate drops each control message with this probability,
	// exercising the flow-granularity re-request timer.
	ControlLossRate float64
}

func (p Platform) config() (testbed.Config, error) {
	if !p.Mode.Valid() {
		return testbed.Config{}, fmt.Errorf("sdnbuffer: invalid mode %d", uint8(p.Mode))
	}
	units := p.BufferUnits
	if units == 0 {
		units = 256
	}
	rereq := p.RerequestTimeout
	if rereq == 0 {
		rereq = 50 * time.Millisecond
	}
	buf := openflow.FlowBufferConfig{
		Granularity:        p.Mode,
		RerequestTimeoutMs: uint32(rereq / time.Millisecond),
	}
	cfg := testbed.DefaultConfig(buf, units)
	if p.Seed != 0 {
		cfg.Seed = p.Seed
	}
	cfg.Switch.Datapath.TableCapacity = p.FlowTableCapacity
	cfg.Forwarder.IdleTimeout = p.RuleIdleTimeout
	cfg.ControlLossRate = p.ControlLossRate
	return cfg, nil
}

// Workload is a traffic schedule for one run. The builder takes the
// destination host address: the topology's host 1, which is Fig. 1's Host2
// (10.0.0.2) on every topology.
type Workload struct {
	name  string
	build func(dst netip.Addr) (pktgen.Schedule, error)
}

// Name reports the workload's description.
func (w Workload) Name() string { return w.name }

func basePktgen(rate float64, dst netip.Addr) pktgen.Config {
	return pktgen.Config{
		FrameSize: 1000,
		RateMbps:  rate,
		Jitter:    0.5,
		Seed:      1,
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:     dst,
	}
}

// SinglePacketFlows is the paper's §IV workload: flows of one packet each
// from forged sources, paced at rate Mbps (paper: 1000 flows, 5-100 Mbps).
func SinglePacketFlows(rateMbps float64, flows int) Workload {
	return Workload{
		name: fmt.Sprintf("%d single-packet flows at %g Mbps", flows, rateMbps),
		build: func(dst netip.Addr) (pktgen.Schedule, error) {
			return pktgen.SinglePacketFlows(basePktgen(rateMbps, dst), flows)
		},
	}
}

// BurstFlows is the paper's §V workload: flows×pktsPerFlow packets released
// in interleaved groups (paper: 50×20, groups of 5).
func BurstFlows(rateMbps float64, flows, pktsPerFlow, groupSize int) Workload {
	return Workload{
		name: fmt.Sprintf("%d flows × %d packets at %g Mbps (groups of %d)",
			flows, pktsPerFlow, rateMbps, groupSize),
		build: func(dst netip.Addr) (pktgen.Schedule, error) {
			return pktgen.InterleavedBursts(basePktgen(rateMbps, dst), flows, pktsPerFlow, groupSize)
		},
	}
}

// TCPReconnect is the §VI.B scenario: a TCP connection bursts, pauses long
// enough for its rule to leave the flow table, then bursts again.
func TCPReconnect(rateMbps float64, burst1 int, pause time.Duration, burst2 int) Workload {
	return Workload{
		name: fmt.Sprintf("TCP %d-packet burst, %v pause, %d-packet burst at %g Mbps",
			burst1, pause, burst2, rateMbps),
		build: func(dst netip.Addr) (pktgen.Schedule, error) {
			return pktgen.TCPEvictionFlow(pktgen.TCPFlowConfig{
				Config:      basePktgen(rateMbps, dst),
				SrcIP:       netip.MustParseAddr("10.1.0.1"),
				SrcPort:     40000,
				BurstPkts:   burst1,
				PauseLen:    pause,
				SecondBurst: burst2,
			})
		},
	}
}

// Report is the metric set of one run — the paper's §III.B metrics. It is
// the testbed result type re-exported.
type Report = testbed.Result

// Run assembles the paper's Fig. 1 platform (one switch between Host1 and
// Host2), replays the workload, and returns the measured metrics. It is
// RunLine with one switch.
func Run(p Platform, w Workload) (*Report, error) {
	return RunLine(p, 1, w)
}

// RunLine runs the workload across a line of switches (Host1 — SW1 — … —
// SWn — Host2, one controller): each hop misses independently for a new
// flow, so the buffer's savings compound per hop. It is RunFabric on the
// "line:n" topology with one controller and hop-by-hop installs, reduced to
// the paper's metric set.
func RunLine(p Platform, switches int, w Workload) (*Report, error) {
	res, err := RunFabric(p, fmt.Sprintf("line:%d", switches), 1, false, w)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// FabricReport is the metric set of one fabric run: the single-switch
// metrics plus fabric shape, sharding and path-install counters. It is the
// fabric testbed result type re-exported.
type FabricReport = testbed.FabricResult

// RunFabric runs the workload across a multi-switch fabric described by a
// topology spec ("line:4", "leafspine:leaves=8,spines=4",
// "fattree:pods=2,leaves=2,spines=2,cores=2", "random:nodes=12,seed=7").
// Traffic flows from host 0 to host 1 of the topology. shards splits the
// control plane across that many controllers (switch i is mastered by
// controller i mod shards; 0 or 1 = a single controller). With pathInstall
// the controller pushes the whole route's flow_mods in one batch on the
// first packet_in; otherwise every hop misses and requests independently.
func RunFabric(p Platform, spec string, shards int, pathInstall bool, w Workload) (*FabricReport, error) {
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	ts, err := topo.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	g, err := topo.Build(ts)
	if err != nil {
		return nil, err
	}
	install := topo.InstallHopByHop
	if pathInstall {
		install = topo.InstallPath
	}
	fb, err := testbed.NewFabric(cfg, testbed.FabricOptions{
		Graph:   g,
		Shards:  shards,
		Install: install,
	})
	if err != nil {
		return nil, err
	}
	if w.build == nil {
		return nil, fmt.Errorf("sdnbuffer: empty workload")
	}
	sched, err := w.build(g.Hosts()[1].Addr)
	if err != nil {
		return nil, err
	}
	return fb.Run(sched)
}

// ExperimentOptions scales an experiment sweep; the zero value uses the
// paper's parameters. It is the experiments options type re-exported.
//
// Sweeps fan their (series, rate, repeat) cell grid out across
// ExperimentOptions.Parallelism worker goroutines (default: every core).
// Each cell is an independent simulation, and aggregates are folded in a
// fixed order, so results are identical at any parallelism setting.
type ExperimentOptions = experiments.Options

// ExperimentResult is a completed per-figure experiment with table/CSV
// writers and claim derivation.
type ExperimentResult = experiments.Result

// ExperimentIDs lists every reproducible figure, in paper order.
func ExperimentIDs() []string {
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// RunExperiment regenerates one figure of the paper by id (e.g. "fig2a").
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	exp, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return experiments.Run(exp, opts)
}
