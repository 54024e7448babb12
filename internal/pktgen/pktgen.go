// Package pktgen generates the testbed's traffic, mirroring how the paper
// drives its experiments with the Linux pktgen tool: UDP frames of a fixed
// size, paced to a target sending rate, with forged source IP addresses so
// every flow is new to the switch.
//
// Workloads are precomputed emission schedules: a sorted list of (time,
// frame) pairs a host replays. Precomputing keeps the simulator
// deterministic and makes workloads inspectable in tests.
package pktgen

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"sdnbuffer/internal/packet"
)

// Emission is one scheduled frame transmission.
type Emission struct {
	At     time.Duration
	Frame  []byte
	FlowID int // workload-local flow index
	Seq    int // packet index within the flow
	Key    packet.FlowKey
}

// Schedule is a time-ordered list of emissions.
type Schedule []Emission

// Duration reports the time of the last emission (the nominal sending
// window).
func (s Schedule) Duration() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].At
}

// TotalBytes reports the sum of frame sizes.
func (s Schedule) TotalBytes() int64 {
	var n int64
	for _, e := range s {
		n += int64(len(e.Frame))
	}
	return n
}

// Flows reports the number of distinct flows in the schedule.
func (s Schedule) Flows() int {
	seen := make(map[int]bool)
	for _, e := range s {
		seen[e.FlowID] = true
	}
	return len(seen)
}

// Config describes the common frame parameters.
type Config struct {
	// FrameSize is the full Ethernet frame size in bytes (the paper uses
	// 1000).
	FrameSize int
	// RateMbps is the sending rate the host paces to.
	RateMbps float64
	// SrcMAC/DstMAC and DstIP identify the receiving host; source IPs are
	// forged per flow.
	SrcMAC packet.MAC
	DstMAC packet.MAC
	DstIP  netip.Addr
	// DstPort is the destination UDP port (the paper's pktgen default, 9,
	// when zero).
	DstPort uint16
	// Jitter randomizes inter-frame gaps by the given fraction (0 = exact
	// pacing, 0.5 = gaps uniform in [0.5g, 1.5g]), preserving the mean
	// rate. Real pktgen pacing is not metronomic; jitter is what lets
	// queueing effects appear gradually below saturation instead of
	// switching on at exactly 100% utilization.
	Jitter float64
	// Seed drives the jitter (and nothing else); schedules are
	// deterministic per seed.
	Seed int64
}

// headerOverhead is the per-frame byte count consumed by Ethernet, IPv4 and
// UDP headers.
const headerOverhead = packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen

func (c *Config) validate() error {
	if c.FrameSize < headerOverhead {
		return fmt.Errorf("pktgen: frame size %d below header overhead %d", c.FrameSize, headerOverhead)
	}
	if c.FrameSize > 1514 {
		return fmt.Errorf("pktgen: frame size %d exceeds Ethernet MTU frame", c.FrameSize)
	}
	if c.RateMbps <= 0 {
		return fmt.Errorf("pktgen: rate must be positive, got %g Mbps", c.RateMbps)
	}
	if !c.DstIP.Is4() {
		return fmt.Errorf("pktgen: destination must be an IPv4 address")
	}
	if c.Jitter < 0 || c.Jitter > 1 {
		return fmt.Errorf("pktgen: jitter must be in [0, 1], got %g", c.Jitter)
	}
	return nil
}

// pacer yields successive inter-frame gaps honouring the jitter setting.
type pacer struct {
	gap    time.Duration
	jitter float64
	rng    *rand.Rand
}

func (c *Config) pacer() *pacer {
	return &pacer{gap: c.gap(), jitter: c.Jitter, rng: rand.New(rand.NewSource(c.Seed))}
}

func (p *pacer) next() time.Duration {
	if p.jitter == 0 {
		return p.gap
	}
	f := 1 - p.jitter + 2*p.jitter*p.rng.Float64()
	return time.Duration(float64(p.gap) * f)
}

func (c *Config) dstPort() uint16 {
	if c.DstPort == 0 {
		return 9 // discard protocol, pktgen's default
	}
	return c.DstPort
}

// gap reports the inter-frame pacing interval for the configured rate.
func (c *Config) gap() time.Duration {
	return time.Duration(float64(c.FrameSize*8) / (c.RateMbps * 1e6) * float64(time.Second))
}

// forgedSrcIP derives a distinct source address per flow index, as pktgen's
// source-IP forging does.
func forgedSrcIP(flowID int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(flowID >> 8), byte(flowID)})
}

// zeroPad backs every generated payload: pktgen payloads are all-zero and
// Serialize copies them into the wire buffer, so all frames (and all
// concurrently generating sweep cells) can share this one read-only slice
// instead of allocating per frame. validate() caps FrameSize at 1514, so the
// slice is always long enough.
var zeroPad = make([]byte, 1514)

// buildFrame serializes one UDP frame for the given flow and size.
func buildFrame(c *Config, flowID int, srcPort uint16, ipid uint16) ([]byte, packet.FlowKey, error) {
	f := &packet.Frame{
		SrcMAC:    c.SrcMAC,
		DstMAC:    c.DstMAC,
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     forgedSrcIP(flowID),
		DstIP:     c.DstIP,
		IPID:      ipid,
		SrcPort:   srcPort,
		DstPort:   c.dstPort(),
		Payload:   zeroPad[:c.FrameSize-headerOverhead],
	}
	wire, err := f.Serialize()
	if err != nil {
		return nil, packet.FlowKey{}, fmt.Errorf("pktgen: building frame: %w", err)
	}
	return wire, f.Key(), nil
}

// SinglePacketFlows builds the paper's §IV workload: n flows of one packet
// each, every flow from a fresh forged source IP, paced back-to-back at the
// configured rate. 1000 flows at 5-100 Mbps with 1000-byte frames
// reproduces the study's sweep points.
func SinglePacketFlows(c Config, n int) (Schedule, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("pktgen: flow count must be positive, got %d", n)
	}
	pc := c.pacer()
	out := make(Schedule, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		wire, key, err := buildFrame(&c, i, uint16(10000+i%50000), uint16(i))
		if err != nil {
			return nil, err
		}
		out = append(out, Emission{
			At:     at,
			Frame:  wire,
			FlowID: i,
			Seq:    0,
			Key:    key,
		})
		at += pc.next()
	}
	return out, nil
}

// InterleavedBursts builds the paper's §V workload: flows of pktsPerFlow
// packets each, released in groups of groupSize flows whose packets are
// interleaved in cross sequence (f1p1, f2p1, …, fGp1, f1p2, f2p2, …), all
// paced at the configured rate. The paper uses 50 flows × 20 packets in
// groups of 5.
func InterleavedBursts(c Config, flows, pktsPerFlow, groupSize int) (Schedule, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if flows <= 0 || pktsPerFlow <= 0 || groupSize <= 0 {
		return nil, fmt.Errorf("pktgen: flows/pktsPerFlow/groupSize must be positive, got %d/%d/%d",
			flows, pktsPerFlow, groupSize)
	}
	if flows%groupSize != 0 {
		return nil, fmt.Errorf("pktgen: flows %d not divisible by group size %d", flows, groupSize)
	}
	pc := c.pacer()
	out := make(Schedule, 0, flows*pktsPerFlow)
	at := time.Duration(0)
	for group := 0; group < flows/groupSize; group++ {
		base := group * groupSize
		for seq := 0; seq < pktsPerFlow; seq++ {
			for f := 0; f < groupSize; f++ {
				flowID := base + f
				wire, key, err := buildFrame(&c, flowID, uint16(20000+flowID), uint16(seq))
				if err != nil {
					return nil, err
				}
				out = append(out, Emission{
					At:     at,
					Frame:  wire,
					FlowID: flowID,
					Seq:    seq,
					Key:    key,
				})
				at += pc.next()
			}
		}
	}
	return out, nil
}

// PoissonFlows builds an open-loop workload with exponentially distributed
// flow inter-arrivals around the target rate and a geometric-ish packet
// count per flow, for robustness experiments beyond the paper's fixed
// patterns. rng must be seeded by the caller for reproducibility.
func PoissonFlows(c Config, rng *rand.Rand, flows, meanPktsPerFlow int) (Schedule, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if flows <= 0 || meanPktsPerFlow <= 0 {
		return nil, fmt.Errorf("pktgen: flows/meanPktsPerFlow must be positive, got %d/%d", flows, meanPktsPerFlow)
	}
	if rng == nil {
		return nil, fmt.Errorf("pktgen: nil rng")
	}
	// The mean inter-frame gap that achieves the configured rate.
	meanGap := c.gap()
	out := Schedule{}
	at := time.Duration(0)
	for i := 0; i < flows; i++ {
		pkts := 1 + rng.Intn(2*meanPktsPerFlow-1) // uniform, mean ≈ meanPktsPerFlow
		for seq := 0; seq < pkts; seq++ {
			wire, key, err := buildFrame(&c, i, uint16(30000+i), uint16(seq))
			if err != nil {
				return nil, err
			}
			out = append(out, Emission{At: at, Frame: wire, FlowID: i, Seq: seq, Key: key})
			at += time.Duration(rng.ExpFloat64() * float64(meanGap))
		}
	}
	return out, nil
}

// TCPFlowConfig describes a synthetic TCP flow for the §VI.B eviction
// scenario: handshake, a first data burst, a pause (during which the
// switch's flow table can evict the rule), then a second burst on the same
// established connection.
type TCPFlowConfig struct {
	Config
	SrcIP       netip.Addr
	SrcPort     uint16
	BurstPkts   int
	PauseLen    time.Duration
	SecondBurst int
}

// TCPEvictionFlow builds the two-burst TCP workload. All packets share one
// 5-tuple; the caller points the switch's flow table at a small capacity so
// background traffic evicts the rule during the pause.
func TCPEvictionFlow(c TCPFlowConfig) (Schedule, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if !c.SrcIP.Is4() {
		return nil, fmt.Errorf("pktgen: TCP source must be IPv4")
	}
	if c.BurstPkts <= 0 || c.SecondBurst <= 0 {
		return nil, fmt.Errorf("pktgen: burst sizes must be positive, got %d/%d", c.BurstPkts, c.SecondBurst)
	}
	if c.PauseLen <= 0 {
		return nil, fmt.Errorf("pktgen: pause must be positive, got %v", c.PauseLen)
	}
	gap := c.gap()
	mk := func(flags packet.TCPFlags, seq uint32, payload int) ([]byte, packet.FlowKey, error) {
		f := &packet.Frame{
			SrcMAC:    c.SrcMAC,
			DstMAC:    c.DstMAC,
			EtherType: packet.EtherTypeIPv4,
			TTL:       64,
			Proto:     packet.ProtoTCP,
			SrcIP:     c.SrcIP,
			DstIP:     c.DstIP,
			SrcPort:   c.SrcPort,
			DstPort:   c.dstPort(),
			Seq:       seq,
			Flags:     flags,
			Window:    65535,
			Payload:   zeroPad[:payload],
		}
		wire, err := f.Serialize()
		if err != nil {
			return nil, packet.FlowKey{}, fmt.Errorf("pktgen: building TCP frame: %w", err)
		}
		return wire, f.Key(), nil
	}

	dataLen := c.FrameSize - packet.EthernetHeaderLen - packet.IPv4HeaderLen - packet.TCPHeaderLen
	if dataLen < 0 {
		dataLen = 0
	}
	out := Schedule{}
	at := time.Duration(0)
	seqNo := uint32(1)
	emit := func(flags packet.TCPFlags, payload int, pktSeq int) error {
		wire, key, err := mk(flags, seqNo, payload)
		if err != nil {
			return err
		}
		out = append(out, Emission{At: at, Frame: wire, FlowID: 0, Seq: pktSeq, Key: key})
		seqNo += uint32(payload)
		at += gap
		return nil
	}
	n := 0
	// Handshake (the receiving side is not modelled; the switch only sees
	// the client's segments, which is what exercises the miss path).
	if err := emit(packet.FlagSYN, 0, n); err != nil {
		return nil, err
	}
	n++
	if err := emit(packet.FlagACK, 0, n); err != nil {
		return nil, err
	}
	n++
	for i := 0; i < c.BurstPkts; i++ {
		if err := emit(packet.FlagACK|packet.FlagPSH, dataLen, n); err != nil {
			return nil, err
		}
		n++
	}
	at += c.PauseLen
	for i := 0; i < c.SecondBurst; i++ {
		if err := emit(packet.FlagACK|packet.FlagPSH, dataLen, n); err != nil {
			return nil, err
		}
		n++
	}
	return out, nil
}
