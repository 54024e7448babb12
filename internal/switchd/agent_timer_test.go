package switchd

import (
	"fmt"
	"net"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
)

// agentWithRules builds an unconnected agent whose 4096-rule LRU table holds
// n exact rules that idle out after idleSec seconds, installed and armed the
// way the control path does, and returns one frame per rule.
func agentWithRules(tb testing.TB, n int, idleSec uint16) (*Agent, [][]byte) {
	tb.Helper()
	a, err := NewAgent(AgentConfig{Datapath: Config{DatapathID: 1, NumPorts: 2, TableCapacity: 4096}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = a.Close() })
	frames := make([][]byte, n)
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range frames {
		frames[i] = testFrame(tb, fmt.Sprintf("10.1.%d.%d", i>>8, i&0xff), 1000, 100)
		parsed, err := parseForTest(frames[i])
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := a.dp.HandleFlowMod(a.now(), &openflow.FlowMod{
			Command:     openflow.FlowModAdd,
			Match:       openflow.ExactMatch(1, parsed),
			Priority:    100,
			IdleTimeout: idleSec,
			BufferID:    openflow.NoBuffer,
			Actions:     []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	a.armEarliestLocked()
	return a, frames
}

// TestAgentHitDoesNoTimerWork pins the hit path: a table hit can only move
// deadlines later, so it must neither touch the timer nor allocate.
func TestAgentHitDoesNoTimerWork(t *testing.T) {
	a, frames := agentWithRules(t, 4096, 60)
	hits := 0
	a.SetTransmit(func(uint16, []byte) { hits++ })
	before := a.TimerStats()
	if before.Rearms != 1 {
		t.Fatalf("installing the rules armed the timer %d times, want 1", before.Rearms)
	}
	i := 0
	allocs := testing.AllocsPerRun(3*len(frames), func() {
		if err := a.InjectFrame(1, frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("InjectFrame on a table hit allocates %v times", allocs)
	}
	if hits != i {
		t.Fatalf("%d of %d frames hit", hits, i)
	}
	if after := a.TimerStats(); after != before {
		t.Errorf("%d hits moved the timer counters from %+v to %+v", i, before, after)
	}
}

// TestAgentArmsWhenReplyCannotBeSent pins the fix for a control message whose
// reply fails to send: the flow_mod below is applied (its rule installed) and
// then answered with an error the dead write side refuses, which used to
// skip the re-arm and leave the rule installed until some later frame.
func TestAgentArmsWhenReplyCannotBeSent(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := NewAgent(AgentConfig{Datapath: Config{
		DatapathID: 1, NumPorts: 2,
		Buffer: openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	ctl, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	a.mu.Lock()
	err = a.conn.(*net.TCPConn).CloseWrite()
	a.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := parseForTest(testFrame(t, "10.1.0.1", 1000, 100))
	if err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	if err := openflow.WriteMessage(ctl, &openflow.FlowMod{
		Command:     openflow.FlowModAdd,
		Match:       openflow.ExactMatch(1, parsed),
		Priority:    100,
		IdleTimeout: 1,
		BufferID:    4242, // no such unit: the rule goes in, an error comes back
		Actions:     []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 7); err != nil {
		t.Fatal(err)
	}
	waitForTableLen(t, a, 1, sent.Add(5*time.Second))
	waitForTableLen(t, a, 0, sent.Add(time.Second+agentTimerSlack))
	if ts := a.TimerStats(); ts.Ticks == 0 || ts.Rearms == 0 {
		t.Errorf("rule expired without the timer: %+v", ts)
	}
}

// agentTimerSlack is how late after its deadline a tick may land and still
// count as on time: the sandbox's timers resolve to about a millisecond, a
// loaded CI runner under -race needs more.
const agentTimerSlack = 500 * time.Millisecond

func waitForTableLen(t *testing.T, a *Agent, want int, deadline time.Time) {
	t.Helper()
	for a.TableLen() != want {
		if time.Now().After(deadline) {
			t.Fatalf("table holds %d rules, want %d", a.TableLen(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func BenchmarkAgentInjectHit4096(b *testing.B) {
	a, frames := agentWithRules(b, 4096, 1)
	a.SetTransmit(func(uint16, []byte) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.InjectFrame(1, frames[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
}
