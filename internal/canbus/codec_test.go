package canbus

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCRC15KnownProperties(t *testing.T) {
	// CRC of the empty sequence is 0.
	if got := CRC15(nil); got != 0 {
		t.Errorf("CRC15(nil) = %04X, want 0", got)
	}
	// A single 1 bit yields the polynomial itself (shifted in).
	if got := CRC15([]byte{1}); got != crcPoly&0x7FFF {
		t.Errorf("CRC15([1]) = %04X, want %04X", got, crcPoly&0x7FFF)
	}
	// CRC must detect any single-bit flip.
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	orig := CRC15(msg)
	for i := range msg {
		msg[i] ^= 1
		if CRC15(msg) == orig {
			t.Errorf("single-bit flip at %d not detected", i)
		}
		msg[i] ^= 1
	}
}

func TestStuffDestuffRoundTrip(t *testing.T) {
	seqs := [][]byte{
		{0, 0, 0, 0, 0},                      // exactly one stuff point
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},       // repeated stuffing
		{0, 1, 0, 1, 0, 1},                   // no stuffing needed
		{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0}, // mixed
		{},
	}
	for _, s := range seqs {
		stuffed := stuff(s)
		got, err := destuff(stuffed)
		if err != nil {
			t.Fatalf("destuff(%v): %v", s, err)
		}
		if len(got) != len(s) {
			t.Fatalf("round trip length %d != %d", len(got), len(s))
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("round trip mismatch at %d: %v vs %v", i, got, s)
			}
		}
	}
}

func TestStuffNeverSixInARow(t *testing.T) {
	prop := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		stuffed := stuff(bits)
		run, last := 0, byte(2)
		for _, b := range stuffed {
			if b == last {
				run++
				if run >= 6 {
					return false
				}
			} else {
				run, last = 1, b
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDestuffDetectsViolation(t *testing.T) {
	// Six equal bits in a row is a stuffing violation.
	if _, err := destuff([]byte{0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrStuffViolation) {
		t.Errorf("destuff accepted six equal bits: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	frames := []Frame{
		MustDataFrame(0x000, nil),
		MustDataFrame(0x555, []byte{0x55, 0xAA}),
		MustDataFrame(0x7FF, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
		{ID: 0x1ABCDEF0 & MaxExtendedID, Extended: true, Data: []byte{1, 2, 3}, DLC: 3},
		{ID: 0x123, RTR: true, DLC: 5},
		{ID: 0x18FF00AA, Extended: true, RTR: true, DLC: 0},
	}
	for _, f := range frames {
		f := f
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		bits, err := EncodeBits(f)
		if err != nil {
			t.Fatalf("encode %v: %v", f, err)
		}
		g, err := DecodeBits(bits)
		if err != nil {
			t.Fatalf("decode %v: %v", f, err)
		}
		if !sameFrame(f, g) {
			t.Errorf("round trip mismatch: %v -> %v", f, g)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	prop := func(id uint32, ext bool, payload []byte) bool {
		f := Frame{Extended: ext}
		if ext {
			f.ID = id % (MaxExtendedID + 1)
		} else {
			f.ID = id % (MaxStandardID + 1)
		}
		if len(payload) > MaxDataLen {
			payload = payload[:MaxDataLen]
		}
		f.Data = payload
		if err := f.Validate(); err != nil {
			return false
		}
		bits, err := EncodeBits(f)
		if err != nil {
			return false
		}
		g, err := DecodeBits(bits)
		if err != nil {
			return false
		}
		return sameFrame(f, g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	f := MustDataFrame(0x2A5, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	bits, err := EncodeBits(f)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every bit position in the stuffed body one at a time; decoding
	// must never silently return a *different valid* frame. (Some flips
	// yield stuffing violations, some CRC errors, some form errors; a flip
	// may in principle produce the same frame only if it is undetectable,
	// which CRC-15 prevents for single-bit errors.)
	for i := 0; i < len(bits)-eofBits-3; i++ {
		mutated := append([]byte(nil), bits...)
		mutated[i] ^= 1
		g, err := DecodeBits(mutated)
		if err == nil && !sameFrame(g, f) {
			t.Fatalf("bit flip at %d decoded silently to different frame %v", i, g)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	f := MustDataFrame(0x100, []byte{1})
	bits, _ := EncodeBits(f)
	for _, n := range []int{0, 5, len(bits) / 2} {
		if _, err := DecodeBits(bits[:n]); err == nil {
			t.Errorf("decoded truncated stream of %d bits", n)
		}
	}
}

func TestDecodeRejectsBadTrailer(t *testing.T) {
	f := MustDataFrame(0x100, []byte{1})
	bits, _ := EncodeBits(f)
	// Dominant bit inside EOF is a form violation.
	bad := append([]byte(nil), bits...)
	bad[len(bad)-1] = dominant
	if _, err := DecodeBits(bad); !errors.Is(err, ErrFormViolation) {
		t.Errorf("bad EOF accepted: %v", err)
	}
}

func TestWireBitsBounds(t *testing.T) {
	// A standard frame with 0 data bytes: 1 SOF + 11 ID + 1 RTR + 2 + 4 DLC
	// + 15 CRC = 34 stuffable bits, + 10 trailer + 3 IFS => at least 47.
	empty := MustDataFrame(0, nil)
	n, err := WireBits(empty)
	if err != nil {
		t.Fatal(err)
	}
	if n < 47 {
		t.Errorf("WireBits(empty) = %d, want >= 47", n)
	}
	full := MustDataFrame(0x7FF, make([]byte, 8))
	m, err := WireBits(full)
	if err != nil {
		t.Fatal(err)
	}
	if m <= n {
		t.Errorf("8-byte frame (%d bits) not longer than empty frame (%d bits)", m, n)
	}
	// Upper bound: 111 raw bits + worst-case stuffing (~25%) + trailer + IFS.
	if m > 160 {
		t.Errorf("WireBits(full) = %d, implausibly large", m)
	}
}

func TestWireBitsMonotonicInPayload(t *testing.T) {
	prev := 0
	for n := 0; n <= 8; n++ {
		f := MustDataFrame(0x2AA, make([]byte, n)) // 0x00 bytes stuff heavily
		bits, err := WireBits(f)
		if err != nil {
			t.Fatal(err)
		}
		if bits <= prev {
			t.Errorf("WireBits not increasing: %d bytes -> %d bits (prev %d)", n, bits, prev)
		}
		prev = bits
	}
}

func TestWireBitsMatchesEncodeBits(t *testing.T) {
	frames := []Frame{
		MustDataFrame(0x123, []byte{1, 2, 3, 4}),
		MustDataFrame(0x000, nil),
		MustDataFrame(0x7FF, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
		MustDataFrame(0x555, []byte{0xAA, 0x55, 0xAA}),
		{ID: 0x1ABCDEF0, Extended: true, Data: []byte{9, 8, 7}, DLC: 3},
		{ID: 0x42, RTR: true, DLC: 4},
	}
	for _, f := range frames {
		wire, err := EncodeBits(f)
		if err != nil {
			t.Fatalf("EncodeBits(%v): %v", f, err)
		}
		n, err := WireBits(f)
		if err != nil {
			t.Fatalf("WireBits(%v): %v", f, err)
		}
		if want := len(wire) + interframeBits; n != want {
			t.Errorf("WireBits(%v) = %d, want %d", f, n, want)
		}
	}
}

func TestWireBitsDoesNotAllocate(t *testing.T) {
	f := MustDataFrame(0x2A5, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := WireBits(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("WireBits allocates %.1f objects/op, want 0", allocs)
	}
}
