package switchd

import (
	"time"

	"sdnbuffer/internal/core"
)

// SimSwitch's data-plane failure surface: the testbed injects link and
// chassis failures here, at the current simulated time, and the switch's
// reactions — rule eviction, flow_removed and port_status notifications —
// travel the same modeled bus and control link as all other control
// traffic, so detection latency is physical, not instantaneous.

// SetPortDown flips one data port's link state. Taking the port down
// evicts rules egressing it (emitting flow_removed where flagged) and
// announces the change to the controller with a port_status message;
// bringing it up announces only. No-op when already in the target state,
// so repeated injections do not re-notify.
func (s *SimSwitch) SetPortDown(port uint16, down bool) error {
	msgs, err := s.dp.SetPortDown(s.kernel.Now(), port, down)
	if err != nil {
		return err
	}
	for _, m := range msgs {
		s.reply(m, 0)
	}
	return nil
}

// Crash power-cycles the switch: the flow table and every buffered packet
// vanish with no notifications, pending CPU and bus work dies with the
// chassis (see the epoch field), and ingress/control delivery is dropped —
// counted — until Restart. Returns what the buffers lost so the caller can
// close its drop ledger.
func (s *SimSwitch) Crash() core.BufferLoss {
	loss := s.dp.Crash(s.kernel.Now())
	s.epoch++
	s.timer.disarm()
	// In-flight controller-delay samples and per-port ordering state died
	// with the chassis; post-restart sequences start fresh. Completions
	// parked in the in-order hold are frames in the chassis pipeline: they
	// die here like any other mid-pipeline frame, to the same named count.
	for _, held := range s.portHeld {
		s.crashRxDrops += uint64(len(held))
	}
	s.sentAt = make(map[uint32]time.Duration)
	s.portSeq = make(map[uint16]uint64)
	s.portNext = make(map[uint16]uint64)
	s.portHeld = make(map[uint16]map[uint64]func())
	s.nextWakeup = 0
	return loss
}

// Restart brings a crashed switch back with empty tables and buffers. The
// controller repopulates state through the ordinary miss path.
func (s *SimSwitch) Restart() {
	s.dp.Restart()
	s.timer.arm()
}

// CrashDrops reports frames and control messages dropped because they
// arrived while the switch was crashed.
func (s *SimSwitch) CrashDrops() (rxFrames, ctlMsgs uint64) {
	return s.crashRxDrops, s.crashCtlDrops
}
