package sdnbuffer

import (
	"strings"
	"testing"
	"time"
)

func TestRunQuickstartAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNoBuffer, ModePacketGranularity, ModeFlowGranularity} {
		rep, err := Run(Platform{Mode: mode}, SinglePacketFlows(40, 200))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rep.FramesDelivered != 200 {
			t.Errorf("%v: delivered %d of 200", mode, rep.FramesDelivered)
		}
	}
}

func TestRunRejectsInvalidPlatform(t *testing.T) {
	if _, err := Run(Platform{Mode: 99}, SinglePacketFlows(40, 10)); err == nil {
		t.Error("accepted invalid mode")
	}
	if _, err := Run(Platform{Mode: ModeNoBuffer}, Workload{}); err == nil {
		t.Error("accepted empty workload")
	}
}

func TestBurstFlowsWorkload(t *testing.T) {
	rep, err := Run(Platform{Mode: ModeFlowGranularity, BufferUnits: 256}, BurstFlows(50, 10, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketIns != 10 {
		t.Errorf("flow granularity packet_ins = %d, want 10 (one per flow)", rep.PacketIns)
	}
	if !strings.Contains(BurstFlows(50, 10, 10, 5).Name(), "10 flows") {
		t.Error("workload name not descriptive")
	}
}

func TestTCPReconnectWorkload(t *testing.T) {
	rep, err := Run(Platform{
		Mode:            ModeFlowGranularity,
		RuleIdleTimeout: 1,
	}, TCPReconnect(50, 5, 3*time.Second, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketIns != 2 {
		t.Errorf("packet_ins = %d, want 2 (initial setup + post-eviction)", rep.PacketIns)
	}
	if rep.FramesDelivered != 15 {
		t.Errorf("delivered %d of 15", rep.FramesDelivered)
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("experiments = %d, want 16", len(ids))
	}
	if ids[0] != "fig2a" || ids[len(ids)-1] != "fig13b" {
		t.Errorf("ids = %v", ids)
	}
}

func TestRunExperimentQuick(t *testing.T) {
	res, err := RunExperiment("fig10", ExperimentOptions{
		Rates: []float64{40}, Repeats: 1, FlowsB: 10, PktsPerFlowB: 5, GroupB: 5,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig10") {
		t.Errorf("table output: %q", sb.String())
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Error("accepted unknown experiment")
	}
}

func TestRunExperimentParallelismDeterministic(t *testing.T) {
	opts := ExperimentOptions{Rates: []float64{30, 60}, Repeats: 2, FlowsA: 60}
	opts.Parallelism = 1
	serial, err := RunExperiment("fig5", opts)
	if err != nil {
		t.Fatalf("RunExperiment(parallel=1): %v", err)
	}
	opts.Parallelism = 4
	parallel, err := RunExperiment("fig5", opts)
	if err != nil {
		t.Fatalf("RunExperiment(parallel=4): %v", err)
	}
	var a, b strings.Builder
	if err := serial.WriteCSV(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&b, true); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("CSV differs across parallelism settings:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunLineFacade(t *testing.T) {
	rep, err := RunLine(Platform{Mode: ModePacketGranularity}, 2, SinglePacketFlows(40, 100))
	if err != nil {
		t.Fatalf("RunLine: %v", err)
	}
	if rep.FramesDelivered != 100 {
		t.Errorf("delivered %d of 100", rep.FramesDelivered)
	}
	if rep.PacketIns != 200 {
		t.Errorf("packet_ins = %d, want 200 (one per flow per hop)", rep.PacketIns)
	}
	if _, err := RunLine(Platform{Mode: 99}, 2, SinglePacketFlows(40, 10)); err == nil {
		t.Error("accepted invalid mode")
	}
	if _, err := RunLine(Platform{Mode: ModeNoBuffer}, 0, SinglePacketFlows(40, 10)); err == nil {
		t.Error("accepted zero switches")
	}
	if _, err := RunLine(Platform{Mode: ModeNoBuffer}, 2, Workload{}); err == nil {
		t.Error("accepted empty workload")
	}
}

func TestRunFabricFacade(t *testing.T) {
	hop, err := RunFabric(Platform{Mode: ModeFlowGranularity}, "leafspine:leaves=2,spines=1", 1, false, SinglePacketFlows(40, 60))
	if err != nil {
		t.Fatalf("RunFabric: %v", err)
	}
	if hop.FramesDelivered != 60 {
		t.Errorf("delivered %d of 60", hop.FramesDelivered)
	}
	if hop.PathHops != 3 {
		t.Errorf("path hops = %d, want 3 (leaf-spine-leaf)", hop.PathHops)
	}
	if hop.PacketIns != 180 {
		t.Errorf("packet_ins = %d, want 180 (one per flow per hop)", hop.PacketIns)
	}
	path, err := RunFabric(Platform{Mode: ModeFlowGranularity}, "leafspine:leaves=2,spines=1", 1, true, SinglePacketFlows(40, 60))
	if err != nil {
		t.Fatalf("RunFabric path install: %v", err)
	}
	if path.PacketIns != 60 {
		t.Errorf("path install packet_ins = %d, want 60 (one per flow)", path.PacketIns)
	}
	if path.PathInstalls != 120 {
		t.Errorf("path installs = %d, want 120 (two downstream hops per flow)", path.PathInstalls)
	}
	if _, err := RunFabric(Platform{Mode: 99}, "line:2", 1, false, SinglePacketFlows(40, 10)); err == nil {
		t.Error("accepted invalid mode")
	}
	if _, err := RunFabric(Platform{Mode: ModeNoBuffer}, "mesh:4", 1, false, SinglePacketFlows(40, 10)); err == nil {
		t.Error("accepted invalid topology spec")
	}
	if _, err := RunFabric(Platform{Mode: ModeNoBuffer}, "line:2", 1, false, Workload{}); err == nil {
		t.Error("accepted empty workload")
	}
}

func TestControlLossFacade(t *testing.T) {
	rep, err := Run(Platform{
		Mode:             ModeFlowGranularity,
		ControlLossRate:  0.1,
		RerequestTimeout: 20 * time.Millisecond,
	}, BurstFlows(50, 20, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesDelivered != int64(rep.FramesSent) {
		t.Errorf("delivered %d of %d under loss", rep.FramesDelivered, rep.FramesSent)
	}
}
