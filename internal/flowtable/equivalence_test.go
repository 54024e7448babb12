package flowtable

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// This file property-tests the equivalence promised in the package doc: the
// indexed Lookup must return the same rule as the retained linear-scan
// LookupOracle — and leave identical counters behind — for any mix of exact
// and wildcard rules. Two tables are driven through the same randomized
// insert/delete/expire sequence; one is probed via Lookup, the other via
// LookupOracle, and every divergence is a bug in the index. The probed table
// is a checkedTable, so the same sequence also holds the deadline/eviction
// index to its scan oracles after every step (index_test.go).

// eqFrame builds a parseable frame from a small field universe so probes
// collide with rules often enough to exercise hits, ties and misses.
func eqFrame(rng *rand.Rand) *packet.Frame {
	proto := uint8(packet.ProtoUDP)
	if rng.Intn(2) == 0 {
		proto = packet.ProtoTCP
	}
	return &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, byte(1 + rng.Intn(2))},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, byte(3 + rng.Intn(2))},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     proto,
		SrcIP:     netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(4))}),
		DstIP:     netip.AddrFrom4([4]byte{10, 0, 1, byte(rng.Intn(4))}),
		SrcPort:   uint16(1000 + rng.Intn(4)),
		DstPort:   uint16(2000 + rng.Intn(4)),
	}
}

// eqMatch builds either the exact reactive-forwarding pattern or a random
// wildcard variant of it (extra wildcard bits on top of the exact set).
func eqMatch(rng *rand.Rand, inPort uint16, f *packet.Frame) openflow.Match {
	m := openflow.ExactMatch(inPort, f)
	if rng.Intn(2) == 0 {
		return m // exact: served by the hash index
	}
	extras := []uint32{
		openflow.WildcardInPort, openflow.WildcardDLSrc, openflow.WildcardDLDst,
		openflow.WildcardNWSrcAll, openflow.WildcardNWDstAll,
		openflow.WildcardTPSrc, openflow.WildcardTPDst, openflow.WildcardNWProto,
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		m.Wildcards |= extras[rng.Intn(len(extras))]
	}
	return m
}

// cloneEntry builds an independent Entry with the same rule content, so the
// two tables never share mutable state.
func cloneEntry(e *Entry) *Entry {
	return &Entry{
		Match:       e.Match,
		Priority:    e.Priority,
		Actions:     e.Actions,
		Cookie:      e.Cookie,
		IdleTimeout: e.IdleTimeout,
		HardTimeout: e.HardTimeout,
		Flags:       e.Flags,
	}
}

func TestLookupMatchesOracle(t *testing.T) {
	runLookupEquivalence(t, eqFrame, eqMatch, (*Table).LookupOracle)
}

// runLookupEquivalence is the randomized sequence shared with the masked
// variant (masked_test.go): seeds cycle through every table shape, and
// through rule sets with some, no and only timed rules.
func runLookupEquivalence(t *testing.T,
	frame func(*rand.Rand) *packet.Frame,
	match func(*rand.Rand, uint16, *packet.Frame) openflow.Match,
	oracleLookup func(*Table, time.Duration, uint16, *packet.Frame, int) *Entry,
) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		shape := tableShapes[seed%4]
		timeouts := seed / 4 // 0: one rule in four each way, 1: none, 2: idle on every rule
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			indexed := newCheckedTable(t, shape.capacity, shape.policy)
			indexed.sparse = (seed%4+seed/4)%2 == 1
			oracle, err := New(shape.capacity, shape.policy)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Duration(0)
			var cookie uint64

			probe := func() {
				f := frame(rng)
				inPort := uint16(1 + rng.Intn(3))
				wireLen := 60 + rng.Intn(1400)
				got := indexed.tbl.Lookup(now, inPort, f, wireLen)
				want := oracleLookup(oracle, now, inPort, f, wireLen)
				switch {
				case (got == nil) != (want == nil):
					t.Fatalf("t=%v frame %v in_port %d: Lookup=%v, oracle=%v", now, f.Key(), inPort, got, want)
				case got != nil && got.Cookie != want.Cookie:
					t.Fatalf("t=%v frame %v in_port %d: Lookup chose rule %d (prio %d), oracle rule %d (prio %d)",
						now, f.Key(), inPort, got.Cookie, got.Priority, want.Cookie, want.Priority)
				}
				indexed.verify(now)
			}
			sameRemovals := func(what string, a, b []Removed) {
				t.Helper()
				if len(a) != len(b) {
					t.Fatalf("%s removed %d vs %d rules", what, len(a), len(b))
				}
				for i := range a {
					if a[i].Entry.Cookie != b[i].Entry.Cookie || a[i].Reason != b[i].Reason {
						t.Fatalf("%s removal %d: rule %d reason %d vs rule %d reason %d", what, i,
							a[i].Entry.Cookie, a[i].Reason, b[i].Entry.Cookie, b[i].Reason)
					}
				}
			}

			for op := 0; op < 600; op++ {
				now += time.Duration(rng.Intn(5)) * time.Millisecond
				switch r := rng.Intn(20); {
				case r < 8: // insert a rule (possibly replacing, evicting or refused)
					cookie++
					e := &Entry{
						Match:    match(rng, uint16(1+rng.Intn(3)), frame(rng)),
						Priority: []uint16{50, 100, 100, 200}[rng.Intn(4)],
						Actions:  []openflow.Action{&openflow.ActionOutput{Port: uint16(1 + rng.Intn(3))}},
						Cookie:   cookie,
					}
					idle, hard := rng.Intn(4) == 0, rng.Intn(4) == 0
					if timeouts == 2 || timeouts == 0 && idle {
						e.IdleTimeout = time.Duration(1+rng.Intn(20)) * time.Millisecond
					}
					if timeouts == 0 && hard {
						e.HardTimeout = time.Duration(1+rng.Intn(30)) * time.Millisecond
					}
					va, erra := indexed.insert(now, cloneEntry(e))
					vb, errb := oracle.Insert(now, cloneEntry(e))
					if (erra == nil) != (errb == nil) || (va == nil) != (vb == nil) ||
						va != nil && va.Entry.Cookie != vb.Entry.Cookie {
						t.Fatalf("insert: (%v, %v) vs (%v, %v)", va, erra, vb, errb)
					}
				case r < 10: // delete a random installed rule, strictly or by cover
					if len(indexed.model) == 0 {
						continue
					}
					victim := indexed.model[rng.Intn(len(indexed.model))]
					m, prio, strict := victim.Match, victim.Priority, r == 8
					sameRemovals("delete",
						indexed.removed(now, indexed.tbl.Delete(now, &m, prio, strict, openflow.PortNone)),
						oracle.Delete(now, &m, prio, strict, openflow.PortNone))
				case r < 12: // expiry sweep
					sameRemovals("expire", indexed.expire(now), oracle.Expire(now))
				case r < 13 && rng.Intn(4) == 0: // a data port goes down; rarer still, a crash
					if port := uint16(rng.Intn(4)); port > 0 {
						sameRemovals("port-down",
							indexed.removed(now, indexed.tbl.DeleteByOutPort(now, port, openflow.RemovedDelete)),
							oracle.DeleteByOutPort(now, port, openflow.RemovedDelete))
					} else {
						indexed.clear(now)
						oracle.Clear()
					}
				default:
					probe()
				}
			}

			// Final state: identical rule lists, per-rule counters, and
			// aggregate lookup statistics.
			ea, eb := indexed.tbl.Entries(), oracle.Entries()
			if len(ea) != len(eb) {
				t.Fatalf("tables diverged: %d vs %d rules", len(ea), len(eb))
			}
			for i := range ea {
				if ea[i].Cookie != eb[i].Cookie {
					t.Fatalf("rule %d: cookie %d vs %d", i, ea[i].Cookie, eb[i].Cookie)
				}
				pa, ba, _ := ea[i].Stats(now)
				pb, bb, _ := eb[i].Stats(now)
				if pa != pb || ba != bb || ea[i].LastUsed() != eb[i].LastUsed() {
					t.Errorf("rule %d (cookie %d): counters %d/%d/%v vs %d/%d/%v",
						i, ea[i].Cookie, pa, ba, ea[i].LastUsed(), pb, bb, eb[i].LastUsed())
				}
			}
			la, ha, ma, va := indexed.tbl.LookupStats()
			lb, hb, mb, vb := oracle.LookupStats()
			if la != lb || ha != hb || ma != mb || va != vb {
				t.Errorf("lookup stats diverged: %d/%d/%d/%d vs %d/%d/%d/%d", la, ha, ma, va, lb, hb, mb, vb)
			}
		})
	}
}
