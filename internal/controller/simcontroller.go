package controller

import (
	"fmt"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/telemetry"
)

// SimConfig is the simulated controller's resource model.
type SimConfig struct {
	// CPUCores is the controller host's core count (paper Table I).
	CPUCores int
	// Cost is the per-message CPU demand model.
	Cost CostModel
}

// DefaultSimConfig returns the calibrated model.
func DefaultSimConfig() SimConfig {
	return SimConfig{CPUCores: 2, Cost: DefaultCostModel()}
}

// SimController runs an App on the discrete-event kernel behind a
// multi-core CPU resource, so controller usage and queueing delay emerge
// from load exactly as they do on the paper's Floodlight host.
type SimController struct {
	kernel *sim.Kernel
	cfg    SimConfig
	app    App
	cpu    *sim.Resource

	// senders holds one downlink per attached switch connection, indexed by
	// the connection number AttachConn hands out.
	senders []func(msg []byte)

	handled   uint64
	appErrors uint64

	// tel is nil unless telemetry is wired (SetTelemetry).
	tel *telemetry.Recorder
}

// NewSimController builds the simulated controller.
func NewSimController(k *sim.Kernel, cfg SimConfig, app App) (*SimController, error) {
	if cfg.CPUCores <= 0 {
		return nil, fmt.Errorf("controller: CPU cores must be positive, got %d", cfg.CPUCores)
	}
	if cfg.Cost.Base < 0 || cfg.Cost.PerByte < 0 {
		return nil, fmt.Errorf("controller: negative cost model")
	}
	if app == nil {
		return nil, fmt.Errorf("controller: nil app")
	}
	return &SimController{
		kernel: k,
		cfg:    cfg,
		app:    app,
		cpu:    sim.NewResource(k, "controller-cpu", cfg.CPUCores),
	}, nil
}

// SetTelemetry wires the packet-lifecycle recorder: the controller emits a
// controller-service span per message it answers, covering CPU queueing,
// application service and the egress-share cost up to the replies reaching
// the downlink, and its CPU reports each job's service interval via the sim
// resource trace hook. nil disables (the default).
func (c *SimController) SetTelemetry(rec *telemetry.Recorder) {
	c.tel = rec
	if rec == nil {
		c.cpu.SetTraceFunc(nil)
		return
	}
	c.cpu.SetTraceFunc(func(_, started, finished time.Duration) {
		c.tel.Span(telemetry.KindControllerCPU, started, finished, 0, 0, 0)
	})
}

// AttachConn registers a switch connection: send is the downlink, called
// with each encoded control message to put on the control link toward the
// switch (nil discards replies). It returns the connection index, so a
// fabric can tell a ConnApp which switch the connection belongs to, and the
// deliver function the uplink calls for each arriving message; processing
// cost is charged on the controller CPU before the application runs. All
// attached switches share the controller's CPU — one Floodlight process
// serving a multi-switch topology.
func (c *SimController) AttachConn(send func(msg []byte)) (int, func(msg []byte)) {
	c.senders = append(c.senders, send)
	conn := len(c.senders) - 1
	return conn, func(msg []byte) { c.deliverFrom(conn, msg) }
}

func (c *SimController) deliverFrom(conn int, msg []byte) {
	// The cost depends on the response size too, which is unknown until the
	// app runs; charge the ingress share first and the egress share when
	// sending. Splitting keeps causality: expensive requests delay the
	// decision, expensive responses delay the send.
	arrived := c.kernel.Now()
	inCost := c.cfg.Cost.Cost(len(msg), 0)
	c.cpu.Submit(inCost, func() { c.process(conn, msg, arrived) })
}

func (c *SimController) process(conn int, msg []byte, arrived time.Duration) {
	m, xid, err := openflow.Decode(msg)
	if err != nil {
		c.appErrors++
		return
	}
	c.handled++
	switch t := m.(type) {
	case *openflow.PacketIn:
		if ca, ok := c.app.(ConnApp); ok {
			replies, err := ca.HandlePacketInConn(conn, t, xid)
			if err != nil {
				c.appErrors++
				return
			}
			c.sendDirected(replies, xid, arrived)
			break
		}
		replies, err := c.app.HandlePacketIn(t, xid)
		if err != nil {
			c.appErrors++
			return
		}
		c.sendAll(conn, replies, xid, arrived)
	case *openflow.EchoRequest:
		c.sendAll(conn, []openflow.Message{&openflow.EchoReply{Data: t.Data}}, xid, arrived)
	case *openflow.Hello:
		c.sendAll(conn, []openflow.Message{&openflow.Hello{}}, xid, arrived)
	case *openflow.PortStatus:
		if pa, ok := c.app.(PortStatusApp); ok {
			replies, err := pa.HandlePortStatusConn(conn, t)
			if err != nil {
				c.appErrors++
				return
			}
			c.sendDirected(replies, xid, arrived)
		}
	case *openflow.FlowRemoved:
		if fa, ok := c.app.(FlowRemovedApp); ok {
			replies, err := fa.HandleFlowRemovedConn(conn, t)
			if err != nil {
				c.appErrors++
				return
			}
			c.sendDirected(replies, xid, arrived)
		}
	case *openflow.ErrorMsg:
		if ea, ok := c.app.(ErrorApp); ok {
			replies, err := ea.HandleErrorConn(conn, t)
			if err != nil {
				c.appErrors++
				return
			}
			c.sendDirected(replies, xid, arrived)
		}
	case *openflow.BarrierReply, *openflow.EchoReply,
		*openflow.FeaturesReply, *openflow.GetConfigReply,
		*openflow.Vendor:
		// Notifications and replies: consumed, no response required.
	default:
		c.appErrors++
	}
	// Recycle the decoded shell (a no-op for non-pooled types). Apps keep at
	// most the Data slice (reactive forwarding copies it into its reply,
	// which sendAll encoded above), never the message itself.
	openflow.ReleaseMessage(m)
}

func (c *SimController) sendAll(conn int, replies []openflow.Message, xid uint32, arrived time.Duration) {
	total := 0
	encoded := make([][]byte, 0, len(replies))
	for _, r := range replies {
		b, err := openflow.Encode(r, xid)
		if err != nil {
			c.appErrors++
			return
		}
		encoded = append(encoded, b)
		total += len(b)
	}
	outCost := c.cfg.Cost.Cost(0, total) - c.cfg.Cost.Base // egress share only
	if outCost < 0 {
		outCost = 0
	}
	c.cpu.Submit(outCost, func() {
		if c.tel != nil {
			// Controller service: message arrival to its replies reaching the
			// downlink — CPU queueing + application + egress-share service.
			c.tel.Span(telemetry.KindControllerService, arrived, c.kernel.Now(), 0, xid, uint32(total))
		}
		sender := c.senders[conn]
		if sender == nil {
			return
		}
		for _, b := range encoded {
			sender(b)
		}
	})
}

// sendDirected is sendAll for ConnApp decisions: every reply of one
// decision is appended into a single backing buffer, sized up front from the
// encoded lengths (the AppendEncode batch path), and shipped by one egress
// CPU job, whatever mix of connections the replies target. This is what
// makes path installation a batch: the whole route's flow_mods cost one
// controller wakeup and leave back-to-back.
func (c *SimController) sendDirected(replies []Directed, xid uint32, arrived time.Duration) {
	if len(replies) == 0 {
		return
	}
	total := 0
	for _, r := range replies {
		total += openflow.EncodedLen(r.Msg)
	}
	buf := make([]byte, 0, total)
	for _, r := range replies {
		var err error
		if buf, err = openflow.AppendEncode(buf, r.Msg, xid); err != nil {
			c.appErrors++
			return
		}
	}
	outCost := c.cfg.Cost.Cost(0, total) - c.cfg.Cost.Base // egress share only
	if outCost < 0 {
		outCost = 0
	}
	c.cpu.Submit(outCost, func() {
		if c.tel != nil {
			c.tel.Span(telemetry.KindControllerService, arrived, c.kernel.Now(), 0, xid, uint32(total))
		}
		off := 0
		for _, r := range replies {
			msg := buf[off : off+openflow.EncodedLen(r.Msg)]
			off += len(msg)
			if r.Conn < 0 || r.Conn >= len(c.senders) {
				c.appErrors++
				continue
			}
			if sender := c.senders[r.Conn]; sender != nil {
				sender(msg)
			}
		}
	})
}

// InjectDirected hands the controller a batch of app-originated messages
// to ship as one decision — how a fabric propagates topology knowledge
// between shards: the receiving shard's flushes leave through its normal
// egress path and pay the normal egress CPU cost.
func (c *SimController) InjectDirected(replies []Directed) {
	c.sendDirected(replies, 0, c.kernel.Now())
}

// CPUUtilizationPercent reports time-averaged controller CPU usage in
// percent of one core — the paper's "controller usages" metric (Fig. 3 /
// Fig. 10).
func (c *SimController) CPUUtilizationPercent() float64 { return c.cpu.UtilizationPercent() }

// Handled reports messages processed and application errors.
func (c *SimController) Handled() (handled, appErrors uint64) { return c.handled, c.appErrors }
