package openflow

import (
	"encoding/binary"
	"fmt"

	"sdnbuffer/internal/packet"
)

// ActionType enumerates the OpenFlow 1.0 action type codes implemented.
type ActionType uint16

// Action type codes (OFPAT_*).
const (
	ActionTypeOutput   ActionType = 0
	ActionTypeSetDLSrc ActionType = 4
	ActionTypeSetDLDst ActionType = 5
	ActionTypeSetNWTOS ActionType = 8
	ActionTypeEnqueue  ActionType = 11
)

// String names the action type in the spec's OFPAT_* style.
func (t ActionType) String() string {
	switch t {
	case ActionTypeOutput:
		return "OUTPUT"
	case ActionTypeSetDLSrc:
		return "SET_DL_SRC"
	case ActionTypeSetDLDst:
		return "SET_DL_DST"
	case ActionTypeSetNWTOS:
		return "SET_NW_TOS"
	case ActionTypeEnqueue:
		return "ENQUEUE"
	default:
		return fmt.Sprintf("OFPAT_%d", uint16(t))
	}
}

// Action is one entry of an OpenFlow action list.
type Action interface {
	// ActionType reports the wire type code.
	ActionType() ActionType
	// actionLen reports the encoded length (a multiple of 8).
	actionLen() int
	// encodeAction writes the action (including its type/len prefix).
	encodeAction(b []byte)
}

// ActionOutput forwards the packet to a port. MaxLen limits how many bytes
// are sent when the port is PortController.
type ActionOutput struct {
	Port   uint16
	MaxLen uint16
}

var _ Action = (*ActionOutput)(nil)

// ActionType implements Action.
func (*ActionOutput) ActionType() ActionType { return ActionTypeOutput }
func (*ActionOutput) actionLen() int         { return 8 }
func (a *ActionOutput) encodeAction(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeOutput))
	binary.BigEndian.PutUint16(b[2:4], 8)
	binary.BigEndian.PutUint16(b[4:6], a.Port)
	binary.BigEndian.PutUint16(b[6:8], a.MaxLen)
}

// String formats the action like "output:3".
func (a *ActionOutput) String() string { return fmt.Sprintf("output:%d", a.Port) }

// ActionSetDLSrc rewrites the Ethernet source address.
type ActionSetDLSrc struct {
	Addr packet.MAC
}

var _ Action = (*ActionSetDLSrc)(nil)

// ActionType implements Action.
func (*ActionSetDLSrc) ActionType() ActionType { return ActionTypeSetDLSrc }
func (*ActionSetDLSrc) actionLen() int         { return 16 }
func (a *ActionSetDLSrc) encodeAction(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeSetDLSrc))
	binary.BigEndian.PutUint16(b[2:4], 16)
	copy(b[4:10], a.Addr[:])
}

// ActionSetDLDst rewrites the Ethernet destination address.
type ActionSetDLDst struct {
	Addr packet.MAC
}

var _ Action = (*ActionSetDLDst)(nil)

// ActionType implements Action.
func (*ActionSetDLDst) ActionType() ActionType { return ActionTypeSetDLDst }
func (*ActionSetDLDst) actionLen() int         { return 16 }
func (a *ActionSetDLDst) encodeAction(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeSetDLDst))
	binary.BigEndian.PutUint16(b[2:4], 16)
	copy(b[4:10], a.Addr[:])
}

// ActionSetNWTOS rewrites the IPv4 TOS/DSCP byte.
type ActionSetNWTOS struct {
	TOS uint8
}

var _ Action = (*ActionSetNWTOS)(nil)

// ActionType implements Action.
func (*ActionSetNWTOS) ActionType() ActionType { return ActionTypeSetNWTOS }
func (*ActionSetNWTOS) actionLen() int         { return 8 }
func (a *ActionSetNWTOS) encodeAction(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeSetNWTOS))
	binary.BigEndian.PutUint16(b[2:4], 8)
	b[4] = a.TOS
}

// ActionEnqueue forwards the packet to a specific queue on a port.
type ActionEnqueue struct {
	Port    uint16
	QueueID uint32
}

var _ Action = (*ActionEnqueue)(nil)

// ActionType implements Action.
func (*ActionEnqueue) ActionType() ActionType { return ActionTypeEnqueue }
func (*ActionEnqueue) actionLen() int         { return 16 }
func (a *ActionEnqueue) encodeAction(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeEnqueue))
	binary.BigEndian.PutUint16(b[2:4], 16)
	binary.BigEndian.PutUint16(b[4:6], a.Port)
	binary.BigEndian.PutUint32(b[12:16], a.QueueID)
}

// actionsLen sums the encoded lengths of an action list.
func actionsLen(actions []Action) int {
	n := 0
	for _, a := range actions {
		n += a.actionLen()
	}
	return n
}

// encodeActions writes an action list into b (which must be actionsLen long).
func encodeActions(b []byte, actions []Action) {
	off := 0
	for _, a := range actions {
		a.encodeAction(b[off : off+a.actionLen()])
		off += a.actionLen()
	}
}

// decodeActions parses a packed action list.
func decodeActions(b []byte) ([]Action, error) {
	var out []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: action header needs 4 bytes, have %d", ErrTruncated, len(b))
		}
		t := ActionType(binary.BigEndian.Uint16(b[0:2]))
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if l < 8 || l%8 != 0 || l > len(b) {
			return nil, fmt.Errorf("%w: action %v length %d with %d remaining", ErrBadLength, t, l, len(b))
		}
		body := b[:l]
		switch t {
		case ActionTypeOutput:
			out = append(out, &ActionOutput{
				Port:   binary.BigEndian.Uint16(body[4:6]),
				MaxLen: binary.BigEndian.Uint16(body[6:8]),
			})
		case ActionTypeSetDLSrc:
			a := &ActionSetDLSrc{}
			copy(a.Addr[:], body[4:10])
			out = append(out, a)
		case ActionTypeSetDLDst:
			a := &ActionSetDLDst{}
			copy(a.Addr[:], body[4:10])
			out = append(out, a)
		case ActionTypeSetNWTOS:
			out = append(out, &ActionSetNWTOS{TOS: body[4]})
		case ActionTypeEnqueue:
			if l < 16 {
				return nil, fmt.Errorf("%w: enqueue action length %d", ErrBadLength, l)
			}
			out = append(out, &ActionEnqueue{
				Port:    binary.BigEndian.Uint16(body[4:6]),
				QueueID: binary.BigEndian.Uint32(body[12:16]),
			})
		default:
			return nil, fmt.Errorf("openflow: unsupported action type %d", uint16(t))
		}
		b = b[l:]
	}
	return out, nil
}
