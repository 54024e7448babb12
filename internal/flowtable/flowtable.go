// Package flowtable implements the OpenFlow flow table the switch datapath
// matches packets against: priority-ordered rules with idle and hard
// timeouts, per-rule traffic counters, and a configurable capacity bound
// with pluggable table-full behaviour (reject, LRU eviction, or
// soonest-expiry eviction).
//
// The capacity bound exists because the paper's root-cause analysis (§II and
// §VI.B) hinges on it: rules for inactive flows get kicked out of the
// size-limited table, so packets of long-lived but bursty TCP connections
// can miss again mid-connection — exactly the scenario the switch buffer
// helps with.
//
// Lookup is served by tuple-space search: rules are grouped by their exact
// wildcard pattern ("tuple"), each tuple hashes its rules by the fields the
// pattern matches on (NW addresses masked to the pattern's prefix), and a
// probe consults one hash bucket per tuple. Tuples are kept sorted by a
// priority high-water mark so the probe stops as soon as no remaining tuple
// can beat the best rule found. The dominant workload installs only the
// reactive-forwarding exact pattern, which makes the probe a single O(1)
// map hit — the PR-2 fast path, unchanged in cost. The pre-index linear
// scans are retained as LookupOracle and LookupMaskedOracle and
// property-tested for equivalence (DESIGN.md §10, §17).
//
// Timeouts and eviction are served by lazily repaired min-heaps (index.go):
// NextExpiry, Expire and the table-full victim search cost O(log n) instead
// of a pass over every rule, and Lookup's hit path does not know they exist.
//
// All methods take the current time explicitly (a time.Duration since the
// start of the run) so the same code serves the virtual-time simulator and
// the live switch. Time must not run backwards between calls: the index
// relies on a rule's lastUsed only ever moving forward.
package flowtable

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// Unlimited disables the capacity bound.
const Unlimited = 0

// Entry is one installed flow rule.
type Entry struct {
	Match       openflow.Match
	Priority    uint16
	Actions     []openflow.Action
	Cookie      uint64
	IdleTimeout time.Duration // 0 = never idles out
	HardTimeout time.Duration // 0 = never hard-expires
	Flags       uint16

	installedAt time.Duration
	lastUsed    time.Duration
	packets     uint64
	bytes       uint64
	seq         uint64 // insertion order; tie-breaks equal priorities like scan position

	// Table membership: the insertion-order list and this rule's slot in
	// each index heap (1-based, 0 = not in that heap). Zero while the rule
	// is outside a table.
	prev, next *Entry
	hpos       [numHeaps]int32
}

// Stats reports the rule's traffic counters and age.
func (e *Entry) Stats(now time.Duration) (packets, bytes uint64, age time.Duration) {
	return e.packets, e.bytes, now - e.installedAt
}

// LastUsed reports when the rule last matched a packet (or was installed).
func (e *Entry) LastUsed() time.Duration { return e.lastUsed }

// Removed describes a rule that left the table and why; the switch turns
// these into flow_removed messages when the rule asked for them. Packets,
// Bytes and Age snapshot the rule's counters at the moment of removal —
// flow_removed must report what the rule forwarded while installed, and
// reading Entry after removal risks observing later mutation of a reused
// or replaced rule object.
type Removed struct {
	Entry   *Entry
	Reason  uint8 // openflow.Removed* code
	At      time.Duration
	Packets uint64
	Bytes   uint64
	Age     time.Duration
}

// removedRecord snapshots a rule's counters into its removal record.
func removedRecord(e *Entry, reason uint8, at time.Duration) Removed {
	return Removed{
		Entry:   e,
		Reason:  reason,
		At:      at,
		Packets: e.packets,
		Bytes:   e.bytes,
		Age:     at - e.installedAt,
	}
}

// EvictionPolicy selects the victim when the table is full.
type EvictionPolicy uint8

// Eviction policies.
const (
	// EvictNone rejects inserts into a full table with ErrTableFull.
	EvictNone EvictionPolicy = 1
	// EvictLRU removes the least recently used rule to make room. This is
	// the behaviour the paper's §VI.B discussion assumes ("rules for
	// inactive flows will be kicked out and replaced by rules for active
	// flows").
	EvictLRU EvictionPolicy = 2
	// EvictSoonestExpiry removes the rule whose idle/hard timeout would
	// fire soonest — the rule the table was about to lose anyway, so the
	// eviction forfeits the least remaining lifetime. Rules with no
	// timeout are treated as expiring never; if every rule is
	// timeout-less the oldest installed (lowest seq) is chosen.
	EvictSoonestExpiry EvictionPolicy = 3
)

// String names the policy for CSV/flag output.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictNone:
		return "reject"
	case EvictLRU:
		return "lru"
	case EvictSoonestExpiry:
		return "expiry"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParseEvictionPolicy maps a policy name ("reject", "lru", "expiry") back
// to its value.
func ParseEvictionPolicy(s string) (EvictionPolicy, error) {
	switch s {
	case "reject":
		return EvictNone, nil
	case "lru":
		return EvictLRU, nil
	case "expiry":
		return EvictSoonestExpiry, nil
	}
	return 0, fmt.Errorf("flowtable: unknown eviction policy %q", s)
}

// ErrTableFull reports an insert into a full table under EvictNone.
var ErrTableFull = errors.New("flowtable: table full")

// tupleKey is the comparable per-tuple hash key: every field the tuple's
// wildcard pattern matches on, with ignored fields zeroed and NW addresses
// masked to the pattern's prefix. VLAN fields are excluded because frame
// matching never tests them (the platform's frames carry no VLAN tags), so
// two rules differing only in VLAN fields match identical frame sets and
// may share a bucket. Addresses are stored as masked uint32s with validity
// bits in nwOK rather than netip.Addr — the flat 32-byte key keeps the
// per-probe hash at the PR-2 exact-index cost.
// Field order avoids any implicit padding (explicit pad byte included), so
// the runtime hashes the key as one flat 32-byte region.
type tupleKey struct {
	nwSrc  uint32
	nwDst  uint32
	inPort uint16
	dlType uint16
	tpSrc  uint16
	tpDst  uint16
	dlSrc  packet.MAC
	dlDst  packet.MAC
	tos    uint8
	proto  uint8
	nwOK   uint8 // bit0: nwSrc is a matched IPv4 value; bit1: same for nwDst
	pad    uint8
}

// maskAddr32 canonicalises an address for the key: a matched IPv4 address
// becomes its masked value with ok=1; an ignored field or a non-IPv4
// address (in practice only the zero Addr of an unset field) becomes
// (0, 0). The validity bit keeps a genuine 0.0.0.0 distinct from "unset",
// mirroring raw netip.Addr equality in Match.Matches.
func maskAddr32(a netip.Addr, ignore uint32) (uint32, uint8) {
	if ignore >= 32 || !a.Is4() {
		return 0, 0
	}
	v := a.As4()
	u := binary.BigEndian.Uint32(v[:])
	if ignore > 0 {
		u &^= 1<<ignore - 1
	}
	return u, 1
}

// tuple is one wildcard pattern's hash table: all rules sharing a Wildcards
// value, keyed by their matched fields. maxPrio is a high-water bound on
// the priorities ever stored (never lowered on removal), used to cut the
// probe short; born orders tuples deterministically among equal bounds.
type tuple struct {
	wildcards uint32
	born      uint64
	maxPrio   uint16
	size      int
	buckets   map[tupleKey][]*Entry

	// Precomputed per-field AND-masks of the wildcard pattern (all-ones
	// when the field is matched, zero when ignored), so frame-key
	// derivation on the lookup fast path is branch-free for every field
	// but the MACs.
	mInPort, mDLType, mTPSrc, mTPDst uint16
	mTOS, mProto                     uint8
	useDLSrc, useDLDst               bool
	mNWSrc, mNWDst                   uint32 // address-bit masks (0 = field ignored)
	okNWSrc, okNWDst                 uint8  // validity-bit masks (1 = field matched)
	nwSrcIgnore, nwDstIgnore         uint32 // raw mask-field values, for matchKey
}

func fieldMask16(wildcards, bit uint32) uint16 {
	if wildcards&bit == 0 {
		return 0xffff
	}
	return 0
}

func newTuple(wildcards uint32, born uint64) *tuple {
	tu := &tuple{
		wildcards:   wildcards,
		born:        born,
		buckets:     make(map[tupleKey][]*Entry),
		mInPort:     fieldMask16(wildcards, openflow.WildcardInPort),
		mDLType:     fieldMask16(wildcards, openflow.WildcardDLType),
		mTPSrc:      fieldMask16(wildcards, openflow.WildcardTPSrc),
		mTPDst:      fieldMask16(wildcards, openflow.WildcardTPDst),
		mTOS:        uint8(fieldMask16(wildcards, openflow.WildcardNWTOS)),
		mProto:      uint8(fieldMask16(wildcards, openflow.WildcardNWProto)),
		useDLSrc:    wildcards&openflow.WildcardDLSrc == 0,
		useDLDst:    wildcards&openflow.WildcardDLDst == 0,
		nwSrcIgnore: openflow.NWSrcIgnoreBits(wildcards),
		nwDstIgnore: openflow.NWDstIgnoreBits(wildcards),
	}
	if tu.nwSrcIgnore < 32 {
		tu.mNWSrc = ^uint32(0) &^ (1<<tu.nwSrcIgnore - 1)
		tu.okNWSrc = 1
	}
	if tu.nwDstIgnore < 32 {
		tu.mNWDst = ^uint32(0) &^ (1<<tu.nwDstIgnore - 1)
		tu.okNWDst = 1
	}
	return tu
}

// addr32 projects an address to its key form: (big-endian value, 1) for
// IPv4, (0, 0) otherwise.
func addr32(a netip.Addr) (uint32, uint8) {
	if !a.Is4() {
		return 0, 0
	}
	v := a.As4()
	return binary.BigEndian.Uint32(v[:]), 1
}

// matchKey derives the bucket key for a rule of this tuple's pattern. Key
// equality within a tuple is equivalent to the per-field tests Matches
// applies, so a bucket holds exactly the rules matching the probing frames.
func (tu *tuple) matchKey(m *openflow.Match) tupleKey {
	k := tupleKey{
		inPort: m.InPort & tu.mInPort,
		dlType: m.DLType & tu.mDLType,
		tpSrc:  m.TPSrc & tu.mTPSrc,
		tpDst:  m.TPDst & tu.mTPDst,
		tos:    m.NWTOS & tu.mTOS,
		proto:  m.NWProto & tu.mProto,
	}
	if tu.useDLSrc {
		k.dlSrc = m.DLSrc
	}
	if tu.useDLDst {
		k.dlDst = m.DLDst
	}
	var sOK, dOK uint8
	k.nwSrc, sOK = maskAddr32(m.NWSrc, tu.nwSrcIgnore)
	k.nwDst, dOK = maskAddr32(m.NWDst, tu.nwDstIgnore)
	k.nwOK = sOK | dOK<<1
	return k
}

// frameKey derives the bucket key a frame on inPort probes this tuple with.
func (tu *tuple) frameKey(inPort uint16, f *packet.Frame) tupleKey {
	k := tupleKey{
		inPort: inPort & tu.mInPort,
		dlType: f.EtherType & tu.mDLType,
		tpSrc:  f.SrcPort & tu.mTPSrc,
		tpDst:  f.DstPort & tu.mTPDst,
		tos:    f.TOS & tu.mTOS,
		proto:  f.Proto & tu.mProto,
	}
	if tu.useDLSrc {
		k.dlSrc = f.SrcMAC
	}
	if tu.useDLDst {
		k.dlDst = f.DstMAC
	}
	s32, sOK := addr32(f.SrcIP)
	d32, dOK := addr32(f.DstIP)
	k.nwSrc = s32 & tu.mNWSrc
	k.nwDst = d32 & tu.mNWDst
	k.nwOK = sOK&tu.okNWSrc | (dOK&tu.okNWDst)<<1
	return k
}

// Table is a single OpenFlow flow table.
type Table struct {
	capacity int
	policy   EvictionPolicy

	// The rules in insertion order (ascending seq: a replacement inherits
	// both the seq and the list position of the rule it replaces), as an
	// intrusive list so that an eviction from the middle costs O(1).
	head, tail *Entry
	n          int

	// deadlines indexes the rules that carry a timeout by expiryInstant;
	// lru indexes every rule of a bounded EvictLRU table by lastUsed. Both
	// stay empty, without storage, on tables that never need them.
	deadlines lazyHeap
	lru       lazyHeap

	// tuples holds one hash table per distinct wildcard pattern, sorted by
	// (maxPrio desc, born asc) so Lookup can stop early; tupleByMask finds
	// a rule's tuple in O(1) for insert/detach.
	tuples      []*tuple
	tupleByMask map[uint32]*tuple
	nextBorn    uint64

	nextSeq uint64

	lookups   uint64
	hits      uint64
	misses    uint64
	evictions uint64
}

// New creates a table. capacity Unlimited (0) means unbounded; policy
// selects full-table behaviour and must be valid when capacity is bounded.
func New(capacity int, policy EvictionPolicy) (*Table, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("flowtable: negative capacity %d", capacity)
	}
	if policy != EvictNone && policy != EvictLRU && policy != EvictSoonestExpiry {
		return nil, fmt.Errorf("flowtable: unknown eviction policy %d", policy)
	}
	return &Table{
		capacity:    capacity,
		policy:      policy,
		deadlines:   lazyHeap{kind: byDeadline},
		lru:         lazyHeap{kind: byLRU},
		tupleByMask: make(map[uint32]*tuple),
	}, nil
}

// Len reports the number of installed rules.
func (t *Table) Len() int { return t.n }

// Capacity reports the configured bound (Unlimited if none).
func (t *Table) Capacity() int { return t.capacity }

// Policy reports the configured table-full policy.
func (t *Table) Policy() EvictionPolicy { return t.policy }

// LookupStats reports lookup/hit/miss/eviction counters.
func (t *Table) LookupStats() (lookups, hits, misses, evictions uint64) {
	return t.lookups, t.hits, t.misses, t.evictions
}

// better reports whether e beats best under the scan's selection rule:
// highest priority wins, earliest-installed (lowest seq) breaks ties.
func better(e, best *Entry) bool {
	if best == nil {
		return true
	}
	if e.Priority != best.Priority {
		return e.Priority > best.Priority
	}
	return e.seq < best.seq
}

// Lookup finds the highest-priority rule matching a frame on inPort,
// updating its counters and recency. It returns nil on a table miss — the
// event that triggers the whole packet_in machinery.
//
// Tuple-space search: one hash probe per wildcard pattern, cut short as
// soon as the best rule found outranks every remaining tuple's priority
// bound. The exact-pattern-only workload keeps this a single map hit.
func (t *Table) Lookup(now time.Duration, inPort uint16, f *packet.Frame, wireLen int) *Entry {
	var best *Entry
	for _, tu := range t.tuples {
		if best != nil && best.Priority > tu.maxPrio {
			break // sorted by maxPrio desc: no remaining tuple can win
		}
		for _, e := range tu.buckets[tu.frameKey(inPort, f)] {
			if better(e, best) {
				best = e
			}
		}
	}
	return t.account(now, best, wireLen)
}

// LookupOracle is the pre-index linear scan, byte-for-byte the original
// lookup semantics (first strictly-higher-priority rule in insertion order
// wins). It is retained as the reference implementation the equivalence
// property test checks Lookup against; production code uses Lookup.
func (t *Table) LookupOracle(now time.Duration, inPort uint16, f *packet.Frame, wireLen int) *Entry {
	var best *Entry
	for e := t.head; e != nil; e = e.next {
		if best != nil && e.Priority <= best.Priority {
			continue
		}
		if e.Match.Matches(inPort, f) {
			best = e
		}
	}
	return t.account(now, best, wireLen)
}

// LookupMaskedOracle is the linear-scan reference for the tuple-space path:
// probe every rule with Match.Matches (which honours partial NW prefix
// masks) and keep the best under the same priority/seq order Lookup uses.
// The randomized equivalence tests pin Lookup to this oracle over arbitrary
// masked rule sets; production code uses Lookup.
func (t *Table) LookupMaskedOracle(now time.Duration, inPort uint16, f *packet.Frame, wireLen int) *Entry {
	var best *Entry
	for e := t.head; e != nil; e = e.next {
		if e.Match.Matches(inPort, f) && better(e, best) {
			best = e
		}
	}
	return t.account(now, best, wireLen)
}

// account applies the hit/miss counter updates shared by all lookup paths.
func (t *Table) account(now time.Duration, best *Entry, wireLen int) *Entry {
	t.lookups++
	if best == nil {
		t.misses++
		return nil
	}
	t.hits++
	best.lastUsed = now
	best.packets++
	best.bytes += uint64(wireLen)
	return best
}

// tupleFor returns the tuple for a wildcard pattern, creating it on demand.
func (t *Table) tupleFor(wildcards uint32) *tuple {
	if tu, ok := t.tupleByMask[wildcards]; ok {
		return tu
	}
	t.nextBorn++
	tu := newTuple(wildcards, t.nextBorn)
	t.tupleByMask[wildcards] = tu
	t.tuples = append(t.tuples, tu)
	t.sortTuples()
	return tu
}

// sortTuples restores the probe order invariant: maxPrio descending, born
// ascending. Selection by better() is order-independent, so this ordering
// affects only how early the probe can stop — but it must be deterministic,
// and (maxPrio, born) is derived purely from the insert sequence.
func (t *Table) sortTuples() {
	sort.Slice(t.tuples, func(i, j int) bool {
		a, b := t.tuples[i], t.tuples[j]
		if a.maxPrio != b.maxPrio {
			return a.maxPrio > b.maxPrio
		}
		return a.born < b.born
	})
}

// attach gives a new rule its seq and adds it to its tuple.
func (t *Table) attach(e *Entry) {
	t.nextSeq++
	e.seq = t.nextSeq
	tu := t.tupleFor(e.Match.Wildcards)
	k := tu.matchKey(&e.Match)
	tu.buckets[k] = append(tu.buckets[k], e)
	tu.size++
	if e.Priority > tu.maxPrio {
		tu.maxPrio = e.Priority
		t.sortTuples()
	}
}

// detach removes an entry from its tuple (not from the list). maxPrio is a
// high-water mark and is deliberately not recomputed — a stale bound only
// costs an extra probe, never a wrong answer — but a tuple whose last rule
// leaves is dropped entirely.
func (t *Table) detach(e *Entry) {
	tu := t.tupleByMask[e.Match.Wildcards]
	if tu == nil {
		return
	}
	k := tu.matchKey(&e.Match)
	bucket := tu.buckets[k]
	for i, b := range bucket {
		if b == e {
			bucket = append(bucket[:i], bucket[i+1:]...)
			tu.size--
			break
		}
	}
	if len(bucket) == 0 {
		delete(tu.buckets, k)
	} else {
		tu.buckets[k] = bucket
	}
	if tu.size == 0 {
		delete(t.tupleByMask, tu.wildcards)
		for i, o := range t.tuples {
			if o == tu {
				t.tuples = append(t.tuples[:i], t.tuples[i+1:]...)
				break
			}
		}
	}
}

// expiryInstant reports when the rule will next expire (the earlier of its
// idle and hard deadlines), or never=false when it carries no timeout.
func expiryInstant(e *Entry) (time.Duration, bool) {
	var next time.Duration
	found := false
	if e.HardTimeout > 0 {
		next, found = e.installedAt+e.HardTimeout, true
	}
	if e.IdleTimeout > 0 {
		if d := e.lastUsed + e.IdleTimeout; !found || d < next {
			next, found = d, true
		}
	}
	return next, found
}

// Insert installs a rule. A rule with an identical match and priority
// replaces the old one (preserving nothing — spec flow_mod ADD semantics).
// When the table is full the policy decides: ErrTableFull, or eviction with
// the victim returned so the caller can emit flow_removed.
func (t *Table) Insert(now time.Duration, e *Entry) (*Removed, error) {
	if e == nil {
		return nil, fmt.Errorf("flowtable: nil entry")
	}
	e.installedAt = now
	e.lastUsed = now

	// Replacement probe. Match.Equal requires identical wildcards and
	// agreement on every matched field, so a replacement candidate lives in
	// the new rule's own tuple bucket — no full-table scan needed. (The
	// bucket can hold non-Equal rules differing in VLAN fields, so Equal is
	// still checked per candidate.)
	if tu, ok := t.tupleByMask[e.Match.Wildcards]; ok {
		k := tu.matchKey(&e.Match)
		for i, old := range tu.buckets[k] {
			if old.Priority == e.Priority && old.Match.Equal(&e.Match) {
				e.seq = old.seq // keep the scan-position tie-break stable
				tu.buckets[k][i] = e
				t.unindex(old)
				t.relink(old, e)
				t.index(e)
				return nil, nil
			}
		}
	}

	var victim *Removed
	if t.capacity != Unlimited && t.n >= t.capacity {
		var v *Entry
		switch t.policy {
		case EvictNone:
			return nil, fmt.Errorf("%w: %d rules", ErrTableFull, t.n)
		case EvictLRU:
			v, _ = t.lru.min()
		case EvictSoonestExpiry:
			// Rules without a timeout expire never and lose to any rule with
			// one; among themselves the earliest-installed goes.
			if v, _ = t.deadlines.min(); v == nil {
				v = t.head
			}
		}
		r := removedRecord(v, openflow.RemovedEviction, now)
		victim = &r
		t.remove(v)
		t.evictions++
	}
	e.prev, e.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
	t.n++
	t.attach(e)
	t.index(e)
	return victim, nil
}

// index enters a listed rule into the heaps that serve it.
func (t *Table) index(e *Entry) {
	if e.IdleTimeout > 0 || e.HardTimeout > 0 {
		t.deadlines.push(e, t.capacity)
	}
	if t.policy == EvictLRU && t.capacity != Unlimited {
		t.lru.push(e, t.capacity)
	}
}

func (t *Table) unindex(e *Entry) {
	t.deadlines.remove(e)
	t.lru.remove(e)
}

// relink puts e in old's place in the insertion-order list.
func (t *Table) relink(old, e *Entry) {
	if old == e {
		return
	}
	e.prev, e.next = old.prev, old.next
	old.prev, old.next = nil, nil
	if e.prev != nil {
		e.prev.next = e
	} else {
		t.head = e
	}
	if e.next != nil {
		e.next.prev = e
	} else {
		t.tail = e
	}
}

// remove takes a rule out of the table: tuple, indexes and list.
func (t *Table) remove(e *Entry) {
	t.detach(e)
	t.unindex(e)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
	t.n--
}

// Delete removes every rule whose match equals m (strict) or is matched by
// the wildcarded deletion pattern (non-strict behaves like strict here for
// simplicity of the subset). It returns the removed rules.
func (t *Table) Delete(now time.Duration, m *openflow.Match, priority uint16, strict bool, outPort uint16) []Removed {
	var removed []Removed
	for e, next := t.head, (*Entry)(nil); e != nil; e = next {
		next = e.next
		var match bool
		if strict {
			match = e.Match.Equal(m) && e.Priority == priority
		} else {
			// Non-strict: the pattern deletes every entry it covers
			// (OpenFlow 1.0 §4.6 — a fully wildcarded pattern flushes the
			// table), regardless of priority.
			match = m.Covers(&e.Match)
		}
		if match && outPort != openflow.PortNone && outPort != 0 {
			// Port 0 is not a valid port number (OpenFlow 1.0 numbers physical
			// ports from 1), so a zero-valued out_port means "no filter" just
			// like OFPP_NONE — callers predating the filter leave it unset.
			match = outputsTo(e.Actions, outPort)
		}
		if match {
			t.remove(e)
			removed = append(removed, removedRecord(e, openflow.RemovedDelete, now))
		}
	}
	return removed
}

// outputsTo reports whether the action list forwards to the given port —
// the ofp_flow_mod out_port delete filter.
func outputsTo(actions []openflow.Action, port uint16) bool {
	for _, a := range actions {
		if out, ok := a.(*openflow.ActionOutput); ok && out.Port == port {
			return true
		}
	}
	return false
}

// DeleteByOutPort evicts every rule whose actions output to the given
// port, tagged with the supplied flow_removed reason — the switch-local
// cleanup when a data port goes down.
func (t *Table) DeleteByOutPort(now time.Duration, port uint16, reason uint8) []Removed {
	var removed []Removed
	for e, next := t.head, (*Entry)(nil); e != nil; e = next {
		next = e.next
		if outputsTo(e.Actions, port) {
			t.remove(e)
			removed = append(removed, removedRecord(e, reason, now))
		}
	}
	return removed
}

// Clear empties the table without emitting flow_removed records — crash
// semantics: a restarting switch comes back with no rules and no
// notifications about the ones it lost. It returns how many rules were
// dropped so ledger-keeping callers can account for the loss.
func (t *Table) Clear() int {
	n := t.n
	for t.head != nil {
		t.remove(t.head)
	}
	return n
}

// Expire removes rules whose idle or hard timeout has passed, returning them
// in insertion order with the matching reason codes (a rule due on both
// counts reports the hard timeout). It costs O(due · log n): the heap's stored
// keys are lower bounds, so a top that is not yet due ends the sweep.
func (t *Table) Expire(now time.Duration) []Removed {
	var removed []Removed
	for t.deadlines.mayBeDue(now) {
		e, at := t.deadlines.min()
		if at > now {
			break // the top was stale; repaired, nothing is due
		}
		reason := openflow.RemovedIdleTimeout
		if e.HardTimeout > 0 && now-e.installedAt >= e.HardTimeout {
			reason = openflow.RemovedHardTimeout
		}
		t.remove(e)
		removed = append(removed, removedRecord(e, reason, now))
	}
	if len(removed) > 1 {
		slices.SortFunc(removed, func(a, b Removed) int { return cmp.Compare(a.Entry.seq, b.Entry.seq) })
	}
	return removed
}

// NextExpiry reports the earliest instant at which some rule could expire,
// and false if no rule carries a timeout. The simulator schedules its expiry
// sweeps from it without polling, so the answer is exact, not a bound.
func (t *Table) NextExpiry() (time.Duration, bool) {
	e, at := t.deadlines.min()
	return at, e != nil
}

// Entries returns a snapshot copy of the rule list (for stats and tests).
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, 0, t.n)
	for e := t.head; e != nil; e = e.next {
		out = append(out, e)
	}
	return out
}

// IndexSize reports how many rules are served by the exact-pattern tuple
// (the PR-2 hash-index fast path) versus other wildcard patterns
// (diagnostics and tests).
func (t *Table) IndexSize() (indexed, wildcard int) {
	const exactWildcards = openflow.WildcardDLVLAN | openflow.WildcardDLVLANPCP | openflow.WildcardNWTOS
	for _, tu := range t.tuples {
		if tu.wildcards == exactWildcards {
			indexed += tu.size
		} else {
			wildcard += tu.size
		}
	}
	return indexed, wildcard
}

// TupleCount reports the number of distinct wildcard patterns currently
// installed — the breadth of the tuple-space search.
func (t *Table) TupleCount() int { return len(t.tuples) }
