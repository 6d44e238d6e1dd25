package canbus

import (
	"bytes"
	"testing"
)

// FuzzDecodeBits feeds arbitrary bitstreams to the frame decoder: it must
// never panic, and anything it accepts must re-encode to a stream that
// decodes to the same frame (decode/encode fixed point).
func FuzzDecodeBits(f *testing.F) {
	seed := func(fr Frame) {
		bits, err := EncodeBits(fr)
		if err == nil {
			f.Add(bits)
		}
	}
	seed(MustDataFrame(0x123, []byte{1, 2, 3}))
	seed(Frame{ID: 0x1FFFFFFF, Extended: true, Data: []byte{0xFF}, DLC: 1})
	seed(Frame{ID: 0x7FF, RTR: true, DLC: 8})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{1}, 64))

	f.Fuzz(func(t *testing.T, raw []byte) {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		fr, err := DecodeBits(bits)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re, err := EncodeBits(fr)
		if err != nil {
			t.Fatalf("accepted frame %v does not re-encode: %v", fr, err)
		}
		fr2, err := DecodeBits(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameFrame(fr, fr2) {
			t.Fatalf("decode/encode fixed point broken: %v vs %v", fr, fr2)
		}
	})
}
