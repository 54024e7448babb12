package flowtable

import (
	"errors"
	"math"
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// The linear scans the index replaced, kept word for word as its oracles
// (the idiom of LookupOracle). They run over the checker's own copy of the
// rule list, so they share nothing with the table under test but the rules.

// nextExpiryScan is the pre-index NextExpiry.
func nextExpiryScan(entries []*Entry) (time.Duration, bool) {
	var next time.Duration
	found := false
	for _, e := range entries {
		if d, ok := expiryInstant(e); ok && (!found || d < next) {
			next, found = d, true
		}
	}
	return next, found
}

// expireScan is the pre-index Expire, without the removal: the rules due at
// now, in list order, hard timeout taking precedence over idle.
func expireScan(entries []*Entry, now time.Duration) []Removed {
	var removed []Removed
	for _, e := range entries {
		switch {
		case e.HardTimeout > 0 && now-e.installedAt >= e.HardTimeout:
			removed = append(removed, removedRecord(e, openflow.RemovedHardTimeout, now))
		case e.IdleTimeout > 0 && now-e.lastUsed >= e.IdleTimeout:
			removed = append(removed, removedRecord(e, openflow.RemovedIdleTimeout, now))
		}
	}
	return removed
}

// victimScan is the pre-index victim search of a full table's Insert.
func victimScan(entries []*Entry, policy EvictionPolicy) *Entry {
	idx := 0
	switch policy {
	case EvictLRU:
		for i, old := range entries {
			if old.lastUsed < entries[idx].lastUsed {
				idx = i
			}
		}
	case EvictSoonestExpiry:
		bestAt := time.Duration(math.MaxInt64)
		for i, old := range entries {
			at := time.Duration(math.MaxInt64)
			if d, ok := expiryInstant(old); ok {
				at = d
			}
			// Strict < keeps the earliest-installed rule as the tie-break.
			if at < bestAt {
				bestAt, idx = at, i
			}
		}
	}
	return entries[idx]
}

// checkedTable drives a Table and, after every step, holds the index to the
// scans: NextExpiry, the Expire result (rules, reasons, order), the eviction
// victim and Entries() must be what the scans over model say. model is the
// rule list as the pre-index slice would have held it.
type checkedTable struct {
	tb    testing.TB
	tbl   *Table
	model []*Entry
	// NextExpiry repairs the heap it reads, so asking after every step keeps
	// the deadline heap fresher than a real caller would. sparse asks on
	// every fourth step only and lets stale keys pile up in between.
	sparse bool
	steps  int
}

func newCheckedTable(tb testing.TB, capacity int, policy EvictionPolicy) *checkedTable {
	tbl, err := New(capacity, policy)
	if err != nil {
		tb.Fatal(err)
	}
	return &checkedTable{tb: tb, tbl: tbl}
}

func (c *checkedTable) drop(e *Entry) {
	for i, m := range c.model {
		if m == e {
			c.model = append(c.model[:i], c.model[i+1:]...)
			return
		}
	}
	c.tb.Fatalf("table removed rule %d, which the model does not hold", e.Cookie)
}

func (c *checkedTable) insert(now time.Duration, e *Entry) (*Removed, error) {
	c.tb.Helper()
	replaces := -1
	for i, old := range c.model {
		if old.Priority == e.Priority && old.Match.Equal(&e.Match) {
			replaces = i
			break
		}
	}
	var wantVictim *Entry
	full := c.tbl.Capacity() != Unlimited && len(c.model) >= c.tbl.Capacity()
	if replaces < 0 && full && c.tbl.Policy() != EvictNone {
		wantVictim = victimScan(c.model, c.tbl.Policy())
	}
	victim, err := c.tbl.Insert(now, e)
	switch {
	case replaces >= 0:
		if err != nil || victim != nil {
			c.tb.Fatalf("t=%v replacing insert returned (%v, %v)", now, victim, err)
		}
		c.model[replaces] = e
	case full && c.tbl.Policy() == EvictNone:
		if !errors.Is(err, ErrTableFull) {
			c.tb.Fatalf("t=%v insert into a full reject table: %v", now, err)
		}
	default:
		if err != nil {
			c.tb.Fatalf("t=%v insert: %v", now, err)
		}
		if (victim == nil) != (wantVictim == nil) || victim != nil && victim.Entry != wantVictim {
			c.tb.Fatalf("t=%v %v eviction: victim %+v, the scan chooses %+v", now, c.tbl.Policy(), victim, wantVictim)
		}
		if victim != nil {
			if victim.Reason != openflow.RemovedEviction {
				c.tb.Fatalf("eviction reason %d", victim.Reason)
			}
			c.drop(victim.Entry)
		}
		c.model = append(c.model, e)
	}
	c.verify(now)
	return victim, err
}

func (c *checkedTable) expire(now time.Duration) []Removed {
	c.tb.Helper()
	want := expireScan(c.model, now)
	got := c.tbl.Expire(now)
	if len(got) != len(want) {
		c.tb.Fatalf("t=%v Expire removed %d rules, the scan %d", now, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			c.tb.Fatalf("t=%v Expire result %d: %+v (rule %d), the scan has %+v (rule %d)",
				now, i, got[i], got[i].Entry.Cookie, want[i], want[i].Entry.Cookie)
		}
		c.drop(got[i].Entry)
	}
	c.verify(now)
	return got
}

// removed accounts for the result of Delete or DeleteByOutPort, which must
// list the rules in insertion order.
func (c *checkedTable) removed(now time.Duration, rs []Removed) []Removed {
	c.tb.Helper()
	for i, r := range rs {
		if i > 0 && rs[i-1].Entry.seq >= r.Entry.seq {
			c.tb.Fatalf("t=%v removal %d out of insertion order", now, i)
		}
		c.drop(r.Entry)
	}
	c.verify(now)
	return rs
}

func (c *checkedTable) clear(now time.Duration) {
	c.tb.Helper()
	if n := c.tbl.Clear(); n != len(c.model) {
		c.tb.Fatalf("Clear dropped %d rules of %d", n, len(c.model))
	}
	c.model = c.model[:0]
	c.verify(now)
}

// verify compares the index's answers and its invariants with the model.
func (c *checkedTable) verify(now time.Duration) {
	c.tb.Helper()
	t := c.tbl
	if got := t.Entries(); len(got) != len(c.model) || t.Len() != len(c.model) {
		c.tb.Fatalf("t=%v table holds %d rules (Len %d), the model %d", now, len(got), t.Len(), len(c.model))
	} else {
		for i := range got {
			if got[i] != c.model[i] {
				c.tb.Fatalf("t=%v Entries()[%d] is rule %d, the model has rule %d", now, i, got[i].Cookie, c.model[i].Cookie)
			}
		}
	}
	timed := 0
	for _, e := range c.model {
		if _, ok := expiryInstant(e); ok {
			timed++
		}
	}
	wantLRU := 0
	if t.Policy() == EvictLRU && t.Capacity() != Unlimited {
		wantLRU = len(c.model)
	}
	c.verifyHeap(&t.deadlines, timed)
	c.verifyHeap(&t.lru, wantLRU)
	if c.steps++; c.sparse && c.steps%4 != 0 {
		return
	}
	gotAt, gotOK := t.NextExpiry()
	wantAt, wantOK := nextExpiryScan(c.model)
	if gotAt != wantAt || gotOK != wantOK {
		c.tb.Fatalf("t=%v NextExpiry = (%v, %v), the scan says (%v, %v)", now, gotAt, gotOK, wantAt, wantOK)
	}
}

func (c *checkedTable) verifyHeap(h *lazyHeap, want int) {
	c.tb.Helper()
	if n := max(len(h.slots)-1, 0); n != want {
		c.tb.Fatalf("heap %d holds %d rules, want %d", h.kind, n, want)
	}
	for i := 1; i < len(h.slots); i++ {
		s := h.slots[i]
		if int(s.e.hpos[h.kind]) != i {
			c.tb.Fatalf("heap %d slot %d: rule %d believes it is in slot %d", h.kind, i, s.e.Cookie, s.e.hpos[h.kind])
		}
		if s.key > h.realKey(s.e) {
			c.tb.Fatalf("heap %d slot %d: stored key %v above the real key %v", h.kind, i, s.key, h.realKey(s.e))
		}
		if i > 1 && h.less(i, i/2) {
			c.tb.Fatalf("heap %d slot %d orders before its parent", h.kind, i)
		}
	}
}

// opFlows is the flow universe of FuzzTableOps: small, so that inserts
// replace, lookups hit and deletes find something.
const opFlows = 8

func opFrame(flow byte) *packet.Frame {
	return &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.AddrFrom4([4]byte{10, 0, 0, flow % opFlows}),
		DstIP:     netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		SrcPort:   1000,
		DstPort:   9,
	}
}

// runTableOps interprets data as an operation sequence against a checked
// table of the given shape: two bytes per step (opcode, argument), time
// never running backwards.
func runTableOps(tb testing.TB, capacity int, policy EvictionPolicy, sparse bool, data []byte) {
	c := newCheckedTable(tb, capacity, policy)
	c.sparse = sparse
	now := time.Duration(0)
	var cookie uint64
	for len(data) >= 2 {
		op, arg := data[0], data[1]
		data = data[2:]
		now += time.Duration(op>>4) * time.Millisecond
		switch op & 0x0f {
		case 0, 1, 2, 3: // insert; arg picks flow, priority and timeouts
			cookie++
			e := &Entry{
				Match:    openflow.ExactMatch(1, opFrame(arg)),
				Priority: 100 + uint16(arg>>3&1),
				Actions:  []openflow.Action{&openflow.ActionOutput{Port: 1 + uint16(arg>>4&1)}},
				Cookie:   cookie,
			}
			if op&1 != 0 {
				e.IdleTimeout = time.Duration(1+arg>>5) * 2 * time.Millisecond
			}
			if op&2 != 0 {
				e.HardTimeout = time.Duration(1+arg>>6) * 5 * time.Millisecond
			}
			_, _ = c.insert(now, e) // a refused insert is checked inside
		case 4, 5, 6, 7: // lookup: a hit moves the rule's idle deadline and recency
			c.tbl.Lookup(now, 1, opFrame(arg), 100)
			c.verify(now)
		case 8, 9:
			c.expire(now)
		case 10: // strict delete
			m := openflow.ExactMatch(1, opFrame(arg))
			c.removed(now, c.tbl.Delete(now, &m, 100+uint16(arg>>3&1), true, openflow.PortNone))
		case 11: // non-strict delete, optionally filtered by out_port
			m := openflow.ExactMatch(1, opFrame(arg))
			if arg&0x80 != 0 {
				m = openflow.Match{Wildcards: openflow.WildcardAll}
			}
			c.removed(now, c.tbl.Delete(now, &m, 0, false, uint16(arg>>4&3)))
		case 12:
			c.removed(now, c.tbl.DeleteByOutPort(now, 1+uint16(arg&1), openflow.RemovedDelete))
		case 13:
			if arg == 0xff {
				c.clear(now)
			}
		default:
			now += time.Duration(arg) * time.Millisecond
			c.verify(now)
		}
	}
	c.expire(now + time.Minute) // every timed rule is due: drains the deadline heap
}

// FuzzTableOps holds the deadline/eviction index to the retained scans over
// arbitrary operation sequences, on every table shape.
func FuzzTableOps(f *testing.F) {
	// insert ×4 with timeouts, hits, time passing, expire
	f.Add(uint8(1), []byte{0x01, 0x00, 0x13, 0x21, 0x02, 0x42, 0x24, 0x00, 0x3f, 0x04, 0x08, 0x00, 0x14, 0x01, 0x98, 0x00})
	// fill past capacity with hits in between: both eviction policies choose a victim
	f.Add(uint8(0x82), []byte{0x00, 0x00, 0x11, 0x01, 0x12, 0x02, 0x13, 0x03, 0x14, 0x00, 0x24, 0x02, 0x10, 0x04, 0x11, 0x05, 0x16, 0x01, 0x10, 0x06, 0x13, 0x07})
	// replacement of a timed rule by an untimed one and back, deletes, clear
	f.Add(uint8(3), []byte{0x01, 0x05, 0x10, 0x05, 0x13, 0x05, 0x0a, 0x05, 0x01, 0x15, 0x0b, 0x80, 0x02, 0x06, 0x0c, 0x00, 0x0d, 0xff, 0x01, 0x07})
	f.Add(uint8(0x80), []byte{0x03, 0xff, 0xf8, 0x00, 0x03, 0x0f, 0x0b, 0x10, 0x0b, 0x25, 0xfe, 0x10})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		s := tableShapes[int(shape)%len(tableShapes)]
		runTableOps(t, s.capacity, s.policy, shape&0x80 != 0, data)
	})
}

// tableShapes are the table configurations the index behaves differently
// on: no bound (deadline heap only, grown on demand), and a small bound
// under each table-full policy.
var tableShapes = []struct {
	capacity int
	policy   EvictionPolicy
}{
	{Unlimited, EvictNone},
	{6, EvictLRU},
	{6, EvictSoonestExpiry},
	{6, EvictNone},
}
