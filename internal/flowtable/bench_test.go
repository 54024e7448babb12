package flowtable

import (
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
)

// The index's in-package benchmarks, on the live switch's table shape: 4096
// rules that idle out after a second. bench/ times the same operations as
// flowtable.next_expiry_ns, expire_ns and insert_evict_ns.

func benchMatch(flow int) openflow.Match {
	f := frameFor("10.1.0.0", 9)
	f.SrcIP = netip.AddrFrom4([4]byte{10, 1, byte(flow >> 8), byte(flow)})
	return openflow.ExactMatch(1, f)
}

func benchTable(b *testing.B, capacity int, policy EvictionPolicy) *Table {
	b.Helper()
	tbl, err := New(capacity, policy)
	if err != nil {
		b.Fatal(err)
	}
	for flow := 0; flow < 4096; flow++ {
		e := &Entry{Match: benchMatch(flow), Priority: 100, IdleTimeout: time.Second}
		if _, err := tbl.Insert(time.Duration(flow), e); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

var (
	sinkAt      time.Duration
	sinkRemoved []Removed
)

func BenchmarkNextExpiry4096(b *testing.B) {
	tbl := benchTable(b, Unlimited, EvictNone)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAt, _ = tbl.NextExpiry()
	}
}

func BenchmarkExpireNoneDue4096(b *testing.B) {
	tbl := benchTable(b, Unlimited, EvictNone)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRemoved = tbl.Expire(time.Millisecond)
	}
	if tbl.Len() != 4096 {
		b.Fatalf("%d rules left", tbl.Len())
	}
}

// BenchmarkInsertEvictLRU4096 inserts into the full table, one eviction per
// insert. The evicted rule's Entry carries the next insert, so what is left
// of the allocator is the table's own: the *Removed that Insert returns and
// the rule's one-element tuple bucket (2 allocs/op, as before the index).
func BenchmarkInsertEvictLRU4096(b *testing.B) {
	tbl := benchTable(b, 4096, EvictLRU)
	matches := make([]openflow.Match, 8192)
	for flow := range matches {
		matches[flow] = benchMatch(flow)
	}
	e := &Entry{}
	now := time.Duration(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		*e = Entry{Match: matches[(4096+i)&8191], Priority: 100, IdleTimeout: time.Second}
		victim, err := tbl.Insert(now, e)
		if err != nil || victim == nil {
			b.Fatalf("insert %d: victim %v, err %v", i, victim, err)
		}
		e = victim.Entry
	}
}
