package canbus

import (
	"bytes"
	"errors"
	"testing"
)

func TestNewDataFrame(t *testing.T) {
	f, err := NewDataFrame(0x123, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 0x123 || f.DLC != 3 || f.RTR || f.Extended {
		t.Errorf("unexpected frame: %+v", f)
	}
}

func TestNewDataFrameCopiesPayload(t *testing.T) {
	data := []byte{1, 2, 3}
	f, err := NewDataFrame(1, data)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	if f.Data[0] != 1 {
		t.Error("frame aliases caller's payload slice")
	}
}

func TestFrameValidation(t *testing.T) {
	tests := []struct {
		name  string
		frame Frame
		want  error
	}{
		{"standard id max", Frame{ID: MaxStandardID}, nil},
		{"standard id overflow", Frame{ID: MaxStandardID + 1}, ErrIDRange},
		{"extended id max", Frame{ID: MaxExtendedID, Extended: true}, nil},
		{"extended id overflow", Frame{ID: MaxExtendedID + 1, Extended: true}, ErrIDRange},
		{"payload max", Frame{ID: 1, Data: make([]byte, 8)}, nil},
		{"payload overflow", Frame{ID: 1, Data: make([]byte, 9)}, ErrDataLen},
		{"rtr with data", Frame{ID: 1, RTR: true, Data: []byte{1}}, ErrRTRData},
		{"rtr dlc ok", Frame{ID: 1, RTR: true, DLC: 8}, nil},
		{"rtr dlc overflow", Frame{ID: 1, RTR: true, DLC: 9}, ErrBadDLC},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := tt.frame
			err := f.Validate()
			if tt.want == nil && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestValidateNormalisesDLC(t *testing.T) {
	f := Frame{ID: 1, Data: []byte{1, 2}, DLC: 7}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.DLC != 2 {
		t.Errorf("DLC = %d after Validate, want 2", f.DLC)
	}
}

func TestFrameCloneIndependence(t *testing.T) {
	f := MustDataFrame(5, []byte{1, 2, 3})
	c := f.Clone()
	c.Data[0] = 0xFF
	if f.Data[0] != 1 {
		t.Error("Clone shares payload storage")
	}
	if !sameFrame(f, f.Clone()) {
		t.Error("clone differs from original")
	}
}

func TestArbitrationOrdering(t *testing.T) {
	// Lower ID wins; data beats RTR at the same ID; standard beats
	// extended with the same 11-bit prefix.
	low := MustDataFrame(0x100, nil)
	high := MustDataFrame(0x200, nil)
	if low.ArbitrationValue() >= high.ArbitrationValue() {
		t.Error("lower ID must have lower arbitration value")
	}
	data := MustDataFrame(0x100, nil)
	rtr := Frame{ID: 0x100, RTR: true}
	if data.ArbitrationValue() >= rtr.ArbitrationValue() {
		t.Error("data frame must beat RTR frame at the same ID")
	}
	std := MustDataFrame(0x100, nil)
	ext := Frame{ID: 0x100, Extended: true}
	if std.ArbitrationValue() >= ext.ArbitrationValue() {
		t.Error("standard frame must beat extended frame")
	}
}

func TestFrameString(t *testing.T) {
	f := MustDataFrame(0x123, []byte{0xAB})
	if got := f.String(); got != "123#D[1]AB" {
		t.Errorf("String() = %q", got)
	}
	r := Frame{ID: 0x10, RTR: true, DLC: 2}
	if got := r.String(); got != "010#R[2]" {
		t.Errorf("String() = %q", got)
	}
}

// sameFrame reports whether two frames are identical on the wire.
func sameFrame(f, g Frame) bool {
	return f.ID == g.ID && f.Extended == g.Extended && f.RTR == g.RTR && f.DLC == g.DLC &&
		bytes.Equal(f.Data, g.Data)
}
