// Package canbus implements a bit-accurate simulation of the CAN 2.0 (ISO
// 11898) bus that underpins the paper's connected-car case study: data and
// remote frames, CRC-15 and bit stuffing, priority arbitration, broadcast
// delivery, acceptance filtering and the error-confinement state machine.
//
// The package also defines the InlineFilter seam where the paper's
// hardware-based policy engine (Fig. 4) is inserted between a node's CAN
// controller and its transceiver.
//
// A Bus is single-owner (see the Bus ownership model) and rewinds through
// one path: Snapshot captures a quiescent bus and RestoreFrom returns to the
// capture. Reset is RestoreFrom of the snapshot MarkPristine takes of the
// constructed topology — allocation-free — so fleet workers reuse one bus
// for thousands of runs.
package canbus

import (
	"errors"
	"fmt"
)

// MaxStandardID is the largest 11-bit CAN identifier.
const MaxStandardID = 0x7FF

// MaxExtendedID is the largest 29-bit CAN identifier.
const MaxExtendedID = 0x1FFFFFFF

// MaxDataLen is the CAN 2.0 payload limit in bytes.
const MaxDataLen = 8

// Frame is a CAN 2.0A/B data or remote frame.
//
// The zero value is a valid standard data frame with ID 0 and no payload.
type Frame struct {
	// ID is the 11-bit (standard) or 29-bit (extended) identifier.
	ID uint32
	// Extended selects the 29-bit identifier format (CAN 2.0B).
	Extended bool
	// RTR marks a remote transmission request; RTR frames carry no data,
	// and DLC encodes the length being requested.
	RTR bool
	// Data is the payload, at most 8 bytes. For RTR frames it must be empty.
	Data []byte
	// DLC is the data length code. For data frames it is derived from
	// len(Data) during validation; for RTR frames it is the requested length.
	DLC uint8
}

// Validation errors.
var (
	ErrIDRange = errors.New("canbus: identifier out of range")
	ErrDataLen = errors.New("canbus: payload exceeds 8 bytes")
	ErrRTRData = errors.New("canbus: RTR frame must not carry data")
	ErrBadDLC  = errors.New("canbus: DLC out of range")
)

// NewDataFrame builds a validated standard data frame.
func NewDataFrame(id uint32, data []byte) (Frame, error) {
	f := Frame{ID: id, Data: append([]byte(nil), data...), DLC: uint8(len(data))}
	if err := f.Validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// MustDataFrame is NewDataFrame for static frames; it panics on invalid input.
func MustDataFrame(id uint32, data []byte) Frame {
	f, err := NewDataFrame(id, data)
	if err != nil {
		panic(err)
	}
	return f
}

// Validate checks identifier range, payload length and RTR consistency, and
// normalises DLC for data frames.
func (f *Frame) Validate() error {
	limit := uint32(MaxStandardID)
	if f.Extended {
		limit = MaxExtendedID
	}
	if f.ID > limit {
		return fmt.Errorf("%w: id=0x%X extended=%v", ErrIDRange, f.ID, f.Extended)
	}
	if len(f.Data) > MaxDataLen {
		return fmt.Errorf("%w: len=%d", ErrDataLen, len(f.Data))
	}
	if f.RTR {
		if len(f.Data) != 0 {
			return ErrRTRData
		}
		if f.DLC > MaxDataLen {
			return fmt.Errorf("%w: dlc=%d", ErrBadDLC, f.DLC)
		}
		return nil
	}
	f.DLC = uint8(len(f.Data))
	return nil
}

// Clone returns a deep copy of the frame.
func (f Frame) Clone() Frame {
	c := f
	if f.Data != nil {
		c.Data = append([]byte(nil), f.Data...)
	}
	return c
}

// ArbitrationValue returns the value compared during bus arbitration: lower
// values are more dominant and win the bus. Standard frames beat extended
// frames with the same leading bits; data frames beat RTR frames of the same
// identifier, which matches the dominant/recessive ordering on a real bus.
func (f Frame) ArbitrationValue() uint64 {
	var v uint64
	if f.Extended {
		v = uint64(f.ID)<<2 | 2 // IDE recessive sorts after standard
	} else {
		v = uint64(f.ID) << 2
	}
	if f.RTR {
		v |= 1
	}
	return v
}

// String renders the frame in candump-like notation.
func (f Frame) String() string {
	kind := "D"
	if f.RTR {
		kind = "R"
	}
	fmtID := "%03X"
	if f.Extended {
		fmtID = "%08X"
	}
	return fmt.Sprintf(fmtID+"#%s[%d]%X", f.ID, kind, f.DLC, f.Data)
}
