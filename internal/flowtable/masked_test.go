package flowtable

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// This file pins the tuple-space index to the masked linear-scan oracle: the
// randomized sequence below mixes exact rules, field wildcards, and partial
// CIDR prefix masks on NW_SRC/NW_DST, and every Lookup must agree with
// LookupMaskedOracle on the chosen rule — including priority ties, resolved
// by insertion order — and on the counters left behind.

// maskedFrame spreads addresses across the bits prefix masks discriminate
// on, so a /26 rule and a /16 rule see different traffic subsets.
func maskedFrame(rng *rand.Rand) *packet.Frame {
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
		SrcIP:     netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), byte(rng.Intn(2) * 16), byte(rng.Intn(4) * 64)}),
		DstIP:     netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), byte(1 + rng.Intn(2)*128), byte(rng.Intn(4) * 64)}),
		SrcPort:   uint16(1000 + rng.Intn(4)),
		DstPort:   uint16(2000 + rng.Intn(4)),
	}
}

// maskedMatch starts from the exact pattern and independently relaxes each
// NW field to a random CIDR prefix or a full wildcard, plus a few random
// non-NW wildcard bits.
func maskedMatch(rng *rand.Rand, inPort uint16, f *packet.Frame) openflow.Match {
	m := openflow.ExactMatch(inPort, f)
	switch rng.Intn(3) {
	case 0: // exact NW_SRC
	case 1:
		m.Wildcards |= openflow.WildcardNWSrcPrefix(8 + rng.Intn(23))
	default:
		m.Wildcards |= openflow.WildcardNWSrcAll
	}
	switch rng.Intn(3) {
	case 0: // exact NW_DST
	case 1:
		m.Wildcards |= openflow.WildcardNWDstPrefix(8 + rng.Intn(23))
	default:
		m.Wildcards |= openflow.WildcardNWDstAll
	}
	extras := []uint32{
		openflow.WildcardInPort, openflow.WildcardDLSrc, openflow.WildcardDLDst,
		openflow.WildcardTPSrc, openflow.WildcardTPDst, openflow.WildcardNWProto,
	}
	for i := rng.Intn(3); i > 0; i-- {
		m.Wildcards |= extras[rng.Intn(len(extras))]
	}
	return m
}

func TestMaskedLookupMatchesOracle(t *testing.T) {
	runLookupEquivalence(t, maskedFrame, maskedMatch, (*Table).LookupMaskedOracle)
}

// TestPrefixMaskMatching pins the CIDR semantics deterministically: a /24
// NW_DST rule matches every address in the prefix and nothing outside it.
func TestPrefixMaskMatching(t *testing.T) {
	tbl := mustNew(t, Unlimited, EvictNone)
	m := openflow.Match{
		Wildcards: openflow.WildcardAll&^(openflow.WildcardDLType|openflow.WildcardNWDstAll) |
			openflow.WildcardNWDstPrefix(24),
		DLType: packet.EtherTypeIPv4,
		NWDst:  netip.MustParseAddr("10.0.1.0"),
	}
	if _, err := tbl.Insert(0, &Entry{Match: m, Priority: 50, Cookie: 7}); err != nil {
		t.Fatal(err)
	}
	in := frameFor("192.168.9.9", 1234)
	in.DstIP = netip.MustParseAddr("10.0.1.200")
	if got := tbl.Lookup(0, 3, in, 100); got == nil || got.Cookie != 7 {
		t.Fatalf("in-prefix frame missed the /24 rule: %v", got)
	}
	out := frameFor("192.168.9.9", 1234)
	out.DstIP = netip.MustParseAddr("10.0.2.200")
	if got := tbl.Lookup(0, 3, out, 100); got != nil {
		t.Fatalf("out-of-prefix frame hit the /24 rule: cookie %d", got.Cookie)
	}
}

// TestEvictSoonestExpiry pins the expiry-pressure policy: the victim is the
// rule whose idle/hard deadline lands first; rules without timeouts are
// last-resort victims, tie-broken by installation age.
func TestEvictSoonestExpiry(t *testing.T) {
	tbl := mustNew(t, 2, EvictSoonestExpiry)
	a := entryFor(frameFor("10.0.0.1", 1), 10)
	a.HardTimeout = 50 * time.Millisecond
	a.Cookie = 1
	b := entryFor(frameFor("10.0.0.1", 2), 10)
	b.HardTimeout = 10 * time.Millisecond
	b.Cookie = 2
	if _, err := tbl.Insert(0, a); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(0, b); err != nil {
		t.Fatal(err)
	}
	c := entryFor(frameFor("10.0.0.1", 3), 10)
	c.Cookie = 3
	victim, err := tbl.Insert(time.Millisecond, c)
	if err != nil {
		t.Fatalf("Insert with eviction: %v", err)
	}
	if victim == nil || victim.Entry.Cookie != 2 {
		t.Fatalf("evicted %+v, want the soonest-expiring rule (cookie 2)", victim)
	}
	if victim.Reason != openflow.RemovedEviction {
		t.Errorf("eviction reason = %d, want %d", victim.Reason, openflow.RemovedEviction)
	}
	// Now the table holds a (hard 50ms, installed at 0) and c (no timeout).
	// The next insert must pick a — a timed rule beats a permanent one.
	d := entryFor(frameFor("10.0.0.1", 4), 10)
	d.Cookie = 4
	victim, err = tbl.Insert(2*time.Millisecond, d)
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil || victim.Entry.Cookie != 1 {
		t.Fatalf("evicted %+v, want the timed rule (cookie 1) over the permanent one", victim)
	}
	// Two permanent rules: the older install loses.
	e := entryFor(frameFor("10.0.0.1", 5), 10)
	e.Cookie = 5
	victim, err = tbl.Insert(3*time.Millisecond, e)
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil || victim.Entry.Cookie != 3 {
		t.Fatalf("evicted %+v, want the older permanent rule (cookie 3)", victim)
	}
}

// TestRemovedSnapshot pins satellite fix: the Removed record carries the
// victim's counters as of removal time, so the flow_removed built from it
// can never report stale or post-removal values.
func TestRemovedSnapshot(t *testing.T) {
	tbl := mustNew(t, 1, EvictLRU)
	f := frameFor("10.0.0.1", 1)
	e := entryFor(f, 10)
	e.Cookie = 1
	if _, err := tbl.Insert(time.Millisecond, e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := tbl.Lookup(time.Duration(2+i)*time.Millisecond, 1, f, 500); got == nil {
			t.Fatal("lookup missed installed rule")
		}
	}
	victim, err := tbl.Insert(10*time.Millisecond, entryFor(frameFor("10.0.0.1", 2), 10))
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil {
		t.Fatal("no eviction at capacity 1")
	}
	if victim.Packets != 3 || victim.Bytes != 1500 {
		t.Errorf("snapshot = %d pkts %d bytes, want 3/1500", victim.Packets, victim.Bytes)
	}
	if victim.Age != 9*time.Millisecond {
		t.Errorf("snapshot age = %v, want 9ms", victim.Age)
	}
	if victim.At != 10*time.Millisecond {
		t.Errorf("snapshot at = %v, want 10ms", victim.At)
	}
}

func TestParseEvictionPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EvictionPolicy
	}{
		{"reject", EvictNone},
		{"lru", EvictLRU},
		{"expiry", EvictSoonestExpiry},
	} {
		got, err := ParseEvictionPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEvictionPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseEvictionPolicy("nope"); err == nil {
		t.Error("ParseEvictionPolicy accepted garbage")
	}
	var bad EvictionPolicy
	if s := bad.String(); s == "" {
		t.Error("zero policy String is empty")
	}
}
