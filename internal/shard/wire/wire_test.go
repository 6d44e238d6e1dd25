package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

// realVehicles runs a small fleet through the real engine (chaos armed so
// the per-vehicle Health ledgers carry non-zero counters) and returns its
// vehicle reports — the codec tests encode production shapes, not
// hand-rolled fixtures.
func realVehicles(t *testing.T, fleet int) []engine.VehicleReport {
	t.Helper()
	fr, err := engine.Run(engine.Config{
		Fleet:          fleet,
		Workers:        2,
		RootSeed:       0xC0FFEE,
		Scenarios:      attack.Scenarios()[:2],
		Regimes:        []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
		TrafficHorizon: 10 * time.Millisecond,
		Chaos:          &chaos.Plan{Seed: 7, Panic: 0.2, Corrupt: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny fleets may dodge the probabilistic plan entirely; only the
	// larger corpora insist on fault-bearing ledgers.
	if fleet >= 4 && fr.Health.IsZero() {
		t.Fatal("chaos plan injected nothing; tests need fault-bearing health ledgers")
	}
	return fr.Vehicles
}

// encodeStream renders vehicles + trailer into one complete wire stream.
func encodeStream(t *testing.T, vs []engine.VehicleReport, tr wire.Trailer) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := range vs {
		if err := w.WriteVehicle(&vs[i]); err != nil {
			t.Fatalf("WriteVehicle: %v", err)
		}
	}
	if err := w.WriteTrailer(tr); err != nil {
		t.Fatalf("WriteTrailer: %v", err)
	}
	return buf.Bytes()
}

// drainStream decodes a full stream, returning the vehicles and trailer or
// the first error.
func drainStream(b []byte) ([]*engine.VehicleReport, wire.Trailer, error) {
	r := wire.NewReader(bytes.NewReader(b))
	var vs []*engine.VehicleReport
	for {
		v, err := r.Next()
		if err == io.EOF {
			tr, terr := r.Trailer()
			return vs, tr, terr
		}
		if err != nil {
			return vs, wire.Trailer{}, err
		}
		vs = append(vs, v)
	}
}

// TestStreamRoundTrip pins the codec's core contract: Writer→Reader
// reproduces every vehicle report and the trailer exactly.
func TestStreamRoundTrip(t *testing.T) {
	vs := realVehicles(t, 5)
	want := wire.Trailer{Start: 3, Count: 5, Err: "shard blew a fuse"}
	stream := encodeStream(t, vs, want)

	got, tr, err := drainStream(stream)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if tr != want {
		t.Errorf("trailer = %+v, want %+v", tr, want)
	}
	if len(got) != len(vs) {
		t.Fatalf("decoded %d vehicles, want %d", len(got), len(vs))
	}
	for i := range vs {
		if !reflect.DeepEqual(*got[i], vs[i]) {
			t.Errorf("vehicle %d diverged:\n got %+v\nwant %+v", i, *got[i], vs[i])
		}
	}
}

// TestEmptyShardStream covers a zero-vehicle shard: header + trailer only.
func TestEmptyShardStream(t *testing.T) {
	want := wire.Trailer{Start: 7, Count: 0}
	got, tr, err := drainStream(encodeStream(t, nil, want))
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) != 0 || tr != want {
		t.Errorf("got %d vehicles, trailer %+v; want 0 vehicles, %+v", len(got), tr, want)
	}
}

// TestVehiclePayloadFixedPoint pins the raw payload encoding: decode of an
// encoded vehicle re-encodes to the identical bytes, and the structural
// value round-trips.
func TestVehiclePayloadFixedPoint(t *testing.T) {
	for i, v := range realVehicles(t, 4) {
		enc1 := wire.AppendVehicle(nil, &v)
		dec, err := wire.DecodeVehiclePayload(enc1)
		if err != nil {
			t.Fatalf("vehicle %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(*dec, v) {
			t.Errorf("vehicle %d: structural round-trip diverged", i)
		}
		if enc2 := wire.AppendVehicle(nil, dec); !bytes.Equal(enc1, enc2) {
			t.Errorf("vehicle %d: re-encode is not a fixed point", i)
		}
	}
}

// TestDecodeVehiclePayloadRejectsTrailingBytes: extra bytes after a valid
// payload are corruption, not slack.
func TestDecodeVehiclePayloadRejectsTrailingBytes(t *testing.T) {
	vs := realVehicles(t, 1)
	enc := wire.AppendVehicle(nil, &vs[0])
	if _, err := wire.DecodeVehiclePayload(append(enc, 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// headerLen is the wire header size for Version 1: 4 magic bytes + a
// single-byte uvarint version.
const headerLen = 5

// TestFlipAnyByteErrors is the corruption property the shard driver's
// quarantine stance rests on: flip ANY single byte anywhere in a valid
// stream and the decode must error — header flips as ErrBadMagic or
// ErrVersion, everything after the header as ErrFrameChecksum. No flip may
// yield a silently different report set.
func TestFlipAnyByteErrors(t *testing.T) {
	vs := realVehicles(t, 3)
	stream := encodeStream(t, vs, wire.Trailer{Start: 0, Count: 3})
	for i := range stream {
		for _, bit := range []byte{0x01, 0x80} {
			mut := bytes.Clone(stream)
			mut[i] ^= bit
			_, _, err := drainStream(mut)
			if err == nil {
				t.Fatalf("flip byte %d (xor %#x): decode succeeded on corrupted stream", i, bit)
			}
			switch {
			case i < 4:
				if !errors.Is(err, wire.ErrBadMagic) {
					t.Errorf("flip magic byte %d (xor %#x): err = %v, want ErrBadMagic", i, bit, err)
				}
			case i < headerLen:
				if !errors.Is(err, wire.ErrVersion) {
					t.Errorf("flip version byte (xor %#x): err = %v, want ErrVersion", bit, err)
				}
			default:
				if !errors.Is(err, wire.ErrFrameChecksum) {
					t.Errorf("flip byte %d (xor %#x): err = %v, want ErrFrameChecksum", i, bit, err)
				}
			}
		}
	}
}

// TestTruncationErrors: every strict prefix of a valid stream must fail to
// decode — a stream that ends before its trailer is indistinguishable from
// a crashed child and is treated as corruption.
func TestTruncationErrors(t *testing.T) {
	vs := realVehicles(t, 2)
	stream := encodeStream(t, vs, wire.Trailer{Start: 0, Count: 2})
	for n := 0; n < len(stream); n++ {
		_, _, err := drainStream(stream[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(stream))
		}
		if n >= headerLen && !errors.Is(err, wire.ErrFrameChecksum) {
			t.Errorf("prefix %d: err = %v, want ErrFrameChecksum", n, err)
		}
	}
}

// TestBytesAfterTrailerRejected: the trailer must be the last frame; a
// stream with anything after it is corrupt.
func TestBytesAfterTrailerRejected(t *testing.T) {
	stream := encodeStream(t, nil, wire.Trailer{Start: 0, Count: 1})
	_, _, err := drainStream(append(stream, 0x00))
	if !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("err = %v, want ErrFrameChecksum", err)
	}
}

// TestBadMagicOnJSON: a JSON document piped into a binary reader surfaces
// as ErrBadMagic, not a decode panic.
func TestBadMagicOnJSON(t *testing.T) {
	_, _, err := drainStream([]byte(`{"Range":"0:5","Report":{}}`))
	if !errors.Is(err, wire.ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// TestUnsupportedVersionRejected: a stream speaking a future protocol
// version is refused outright — the encoding is positional, so there is no
// safe partial decode.
func TestUnsupportedVersionRejected(t *testing.T) {
	stream := encodeStream(t, nil, wire.Trailer{})
	mut := bytes.Clone(stream)
	mut[4] = wire.Version + 1 // version uvarint is one byte for small versions
	_, _, err := drainStream(mut)
	if !errors.Is(err, wire.ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

// TestUnknownFrameKindRejected: a well-framed payload (valid length, valid
// CRC) with an unknown kind byte is still corruption.
func TestUnknownFrameKindRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(encodeStream(t, nil, wire.Trailer{})[:headerLen]) // header only
	payload := []byte{0x7F}                                     // unknown kind
	buf.Write(binary.AppendUvarint(nil, uint64(len(payload))))
	buf.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf.Write(crc[:])
	_, _, err := drainStream(buf.Bytes())
	if !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("err = %v, want ErrFrameChecksum", err)
	}
}

// TestOversizedFrameLengthRejected: a declared frame length beyond the cap
// is rejected before any allocation.
func TestOversizedFrameLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(encodeStream(t, nil, wire.Trailer{})[:headerLen])
	buf.Write(binary.AppendUvarint(nil, 1<<40))
	_, _, err := drainStream(buf.Bytes())
	if !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("err = %v, want ErrFrameChecksum", err)
	}
}

// TestReaderErrorsAreSticky: after a decode error every subsequent Next and
// Trailer call returns the same failure — a half-corrupt stream can never
// be "resumed" past the damage.
func TestReaderErrorsAreSticky(t *testing.T) {
	vs := realVehicles(t, 2)
	stream := encodeStream(t, vs, wire.Trailer{Start: 0, Count: 2})
	stream[len(stream)-1] ^= 0xFF // corrupt the trailer frame CRC
	r := wire.NewReader(bytes.NewReader(stream))
	var first error
	for {
		_, err := r.Next()
		if err != nil {
			first = err
			break
		}
	}
	if !errors.Is(first, wire.ErrFrameChecksum) {
		t.Fatalf("first error = %v, want ErrFrameChecksum", first)
	}
	if _, err := r.Next(); !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("Next after error = %v, want sticky ErrFrameChecksum", err)
	}
	if _, err := r.Trailer(); !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("Trailer after error = %v, want sticky ErrFrameChecksum", err)
	}
}
