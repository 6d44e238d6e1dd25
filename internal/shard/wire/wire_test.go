package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
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
		Fleet:   fleet,
		Workers: 2,
		Groups: []engine.ScenarioGroup{{
			Scenarios: attack.Scenarios()[:2],
			Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
			RootSeed:  0xC0FFEE,
		}},
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

// stampedVehicles runs a small unsupervised fleet over the first two Table
// I scenarios under regimes: every vehicle after the first carries the
// first vehicle's matrix in shared slices (the run-level stamp).
func stampedVehicles(t testing.TB, fleet int, regimes ...attack.Enforcement) []engine.VehicleReport {
	t.Helper()
	fr, err := engine.Run(engine.Config{
		Fleet:   fleet,
		Workers: 2,
		Groups: []engine.ScenarioGroup{{
			Scenarios: attack.Scenarios()[:2],
			Regimes:   regimes,
			RootSeed:  0xC0FFEE,
		}},
		TrafficHorizon: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr.Vehicles
}

// encodeStream renders vehicles + trailer into one complete wire stream.
func encodeStream(t testing.TB, vs []engine.VehicleReport, tr wire.Trailer) []byte {
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

// splitFrames returns the payloads of a well-framed stream's frames, the
// trailer's included.
func splitFrames(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for b := stream[headerLen:]; len(b) > 0; {
		n, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < n+4 {
			t.Fatalf("malformed frame at stream byte %d", len(stream)-len(b))
		}
		out = append(out, b[k:k+int(n)])
		b = b[k+int(n)+4:]
	}
	return out
}

// joinFrames builds a stream of payloads behind a valid header, each with
// a valid length prefix and CRC.
func joinFrames(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("CSW\x01")
	buf.Write(binary.AppendUvarint(nil, wire.Version))
	for _, p := range payloads {
		buf.Write(binary.AppendUvarint(nil, uint64(len(p))))
		buf.Write(p)
		buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(p)))
	}
	return buf.Bytes()
}

// countAt returns the offset of a vehicle frame payload's run count: after
// the kind byte and Index.
func countAt(t testing.TB, payload []byte) int {
	t.Helper()
	if len(payload) == 0 || payload[0] != 0x01 {
		t.Fatal("not a vehicle frame")
	}
	_, n := binary.Varint(payload[1:]) // Index
	return 1 + n
}

// runAt returns a vehicle frame payload's run count and the offset of its
// matrix tag, which follows the count.
func runAt(t testing.TB, payload []byte) (count uint64, tag int) {
	t.Helper()
	off := countAt(t, payload)
	count, n := binary.Uvarint(payload[off:])
	return count, off + n
}

// tagAt returns the offset of a vehicle frame payload's matrix tag.
func tagAt(t testing.TB, payload []byte) int {
	t.Helper()
	_, tag := runAt(t, payload)
	return tag
}

// matrixTags returns the matrix tag of every vehicle frame of a stream, in
// order: 0 inline, 1 back-reference.
func matrixTags(t testing.TB, stream []byte) []byte {
	t.Helper()
	frames := splitFrames(t, stream)
	var tags []byte
	for _, p := range frames[:len(frames)-1] {
		tags = append(tags, p[tagAt(t, p)])
	}
	return tags
}

// runCounts returns the run count of every vehicle frame of a stream, in
// order.
func runCounts(t testing.TB, stream []byte) []uint64 {
	t.Helper()
	frames := splitFrames(t, stream)
	var counts []uint64
	for _, p := range frames[:len(frames)-1] {
		count, _ := runAt(t, p)
		counts = append(counts, count)
	}
	return counts
}

// withRun encodes vs as single frames, then the run of n vehicles that
// follows the last of them, then tr: a stream whose last vehicle frame is
// a run frame.
func withRun(t testing.TB, vs []engine.VehicleReport, n int, tr wire.Trailer) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := range vs {
		if err := w.WriteVehicle(&vs[i]); err != nil {
			t.Fatalf("WriteVehicle: %v", err)
		}
	}
	head := vs[len(vs)-1]
	head.Index++
	if err := w.WriteRun(&head, n); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := w.WriteTrailer(tr); err != nil {
		t.Fatalf("WriteTrailer: %v", err)
	}
	return buf.Bytes()
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

// TestNonFiniteUtilisationRejected: a vehicle whose utilisation is NaN or
// infinite is corruption, whether it arrives in a CRC-valid stream frame
// or as a lone payload — the fleet fold sums only finite values.
func TestNonFiniteUtilisationRejected(t *testing.T) {
	v := realVehicles(t, 1)[0]
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v.Utilisation = u
		vs := []engine.VehicleReport{v}
		if _, _, err := drainStream(encodeStream(t, vs, wire.Trailer{Count: 1})); !errors.Is(err, wire.ErrFrameChecksum) {
			t.Errorf("utilisation %v: stream err = %v, want ErrFrameChecksum", u, err)
		}
		if _, err := wire.DecodeVehiclePayload(wire.AppendVehicle(nil, &vs[0])); !errors.Is(err, wire.ErrFrameChecksum) {
			t.Errorf("utilisation %v: payload err = %v, want ErrFrameChecksum", u, err)
		}
	}
}

// headerLen is the wire header size: 4 magic bytes + a single-byte uvarint
// version.
const headerLen = 5

// TestFlipAnyByteErrors is the corruption property the shard driver's
// quarantine stance rests on: flip ANY single byte anywhere in a valid
// stream and the decode must error — header flips as ErrBadMagic or
// ErrVersion, everything after the header as ErrFrameChecksum. No flip may
// yield a silently different report set.
func TestFlipAnyByteErrors(t *testing.T) {
	vs := realVehicles(t, 3)
	stream := withRun(t, vs, 2, wire.Trailer{Start: 0, Count: 5})
	if tags := matrixTags(t, stream); !bytes.Equal(tags, []byte{0, 1, 1, 1}) {
		t.Fatalf("matrix tags %v, want [0 1 1 1]: the flips must cover back-references", tags)
	}
	if counts := runCounts(t, stream); !slices.Equal(counts, []uint64{1, 1, 1, 2}) {
		t.Fatalf("run counts %v, want [1 1 1 2]: the flips must cover a run frame", counts)
	}
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
	stream := withRun(t, vs, 3, wire.Trailer{Start: 0, Count: 5})
	if tags := matrixTags(t, stream); !bytes.Equal(tags, []byte{0, 1, 1}) {
		t.Fatalf("matrix tags %v, want [0 1 1]: the prefixes must cover a back-reference", tags)
	}
	if counts := runCounts(t, stream); !slices.Equal(counts, []uint64{1, 1, 3}) {
		t.Fatalf("run counts %v, want [1 1 3]: the prefixes must cover a run frame", counts)
	}
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

// TestUnsupportedVersionRejected: a stream speaking an earlier or a future
// protocol version is refused outright — the encoding is positional, so
// there is no safe partial decode.
func TestUnsupportedVersionRejected(t *testing.T) {
	stream := encodeStream(t, nil, wire.Trailer{})
	for _, v := range []byte{wire.Version - 1, wire.Version + 1} {
		mut := bytes.Clone(stream)
		mut[4] = v // version uvarint is one byte for small versions
		_, _, err := drainStream(mut)
		if !errors.Is(err, wire.ErrVersion) {
			t.Errorf("v%d: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestUnknownFrameKindRejected: a well-framed payload (valid length, valid
// CRC) with an unknown kind byte is still corruption.
func TestUnknownFrameKindRejected(t *testing.T) {
	_, _, err := drainStream(joinFrames([]byte{0x7F})) // unknown kind
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

// TestBadMatrixTagRejected: a well-framed vehicle frame (valid length,
// valid CRC) whose matrix tag is a back-reference with no earlier inline
// matrix in the stream, or any tag other than inline or back-reference, is
// corruption, and the Reader stays failed.
func TestBadMatrixTagRejected(t *testing.T) {
	frames := splitFrames(t, encodeStream(t, stampedVehicles(t, 2, attack.EnforceHPE), wire.Trailer{Count: 2}))
	inline, repeat, trailer := frames[0], frames[1], frames[2]
	retag := func(p []byte, tag byte) []byte {
		p = bytes.Clone(p)
		p[tagAt(t, p)] = tag
		return p
	}
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"back-reference first", joinFrames(repeat, trailer)},
		{"tag 0x02 first", joinFrames(retag(inline, 0x02), trailer)},
		{"tag 0xff after inline", joinFrames(inline, retag(repeat, 0xFF), trailer)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := wire.NewReader(bytes.NewReader(tc.stream))
			var err error
			for err == nil {
				_, err = r.Next()
			}
			if !errors.Is(err, wire.ErrFrameChecksum) {
				t.Fatalf("err = %v, want ErrFrameChecksum", err)
			}
			if _, err := r.Next(); !errors.Is(err, wire.ErrFrameChecksum) {
				t.Errorf("Next after error = %v, want sticky ErrFrameChecksum", err)
			}
			if _, err := r.Trailer(); !errors.Is(err, wire.ErrFrameChecksum) {
				t.Errorf("Trailer after error = %v, want sticky ErrFrameChecksum", err)
			}
		})
	}
}

// TestDecodeVehiclePayloadRejectsBackReference: a lone payload has no
// stream to refer back to, so a back-referencing one is rejected.
func TestDecodeVehiclePayloadRejectsBackReference(t *testing.T) {
	frames := splitFrames(t, encodeStream(t, stampedVehicles(t, 2, attack.EnforceHPE), wire.Trailer{Count: 2}))
	if _, err := wire.DecodeVehiclePayload(frames[1][1:]); err == nil {
		t.Error("back-reference payload accepted")
	}
}

// TestHeterogeneousMatrixStream: a stream whose matrix changes sends it
// inline at every change and as a back-reference at every repeat, and the
// decoded repeats share their predecessor's slices.
func TestHeterogeneousMatrixStream(t *testing.T) {
	a := stampedVehicles(t, 3, attack.EnforceNone, attack.EnforceHPE)
	b := stampedVehicles(t, 2, attack.EnforceHPE)
	vs := []engine.VehicleReport{a[0], a[1], b[0], b[1], a[2]}
	for i := range vs {
		vs[i].Index = i
	}
	stream := encodeStream(t, vs, wire.Trailer{Count: len(vs)})
	if tags := matrixTags(t, stream); !bytes.Equal(tags, []byte{0, 1, 0, 1, 0}) {
		t.Errorf("matrix tags %v, want [0 1 0 1 0]", tags)
	}
	got, _, err := drainStream(stream)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := range vs {
		if !reflect.DeepEqual(*got[i], vs[i]) {
			t.Errorf("vehicle %d diverged:\n got %+v\nwant %+v", i, *got[i], vs[i])
		}
	}
	for _, i := range []int{1, 3} {
		if &got[i].Groups[0] != &got[i-1].Groups[0] {
			t.Errorf("vehicle %d does not share vehicle %d's decoded matrix", i, i-1)
		}
	}
}

// TestEqualMatricesBackReferenceByContent: the Writer compares encoded
// matrices, not slice identity, so equal matrices in distinct slices still
// travel as inline + back-reference.
func TestEqualMatricesBackReferenceByContent(t *testing.T) {
	vs := stampedVehicles(t, 2, attack.EnforceNone, attack.EnforceHPE)
	vs[1].Groups = slices.Clone(vs[1].Groups)
	for gi := range vs[1].Groups {
		vs[1].Groups[gi] = slices.Clone(vs[1].Groups[gi])
	}
	stream := encodeStream(t, vs, wire.Trailer{Count: 2})
	if tags := matrixTags(t, stream); !bytes.Equal(tags, []byte{0, 1}) {
		t.Errorf("matrix tags %v, want [0 1]", tags)
	}
	got, _, err := drainStream(stream)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !reflect.DeepEqual(*got[1], vs[1]) {
		t.Errorf("back-referenced vehicle diverged:\n got %+v\nwant %+v", *got[1], vs[1])
	}
}

// TestBackReferenceDecodeAllocs guards the back-reference's point: a
// vehicle that repeats its stream's matrix decodes into the report alone,
// and nothing of the matrix is decoded or allocated again.
func TestBackReferenceDecodeAllocs(t *testing.T) {
	const fleet = 64
	stream := encodeStream(t, stampedVehicles(t, fleet, attack.EnforceNone, attack.EnforceHPE), wire.Trailer{Count: fleet})
	r := wire.NewReader(bytes.NewReader(stream))
	if _, err := r.Next(); err != nil { // the inline first vehicle
		t.Fatal(err)
	}
	var err error
	n := 0
	// AllocsPerRun calls the function once to warm up, then runs times:
	// one call per back-referencing vehicle.
	allocs := testing.AllocsPerRun(fleet-2, func() {
		if err == nil {
			_, err = r.Next()
			n++
		}
	})
	if err != nil || n != fleet-1 {
		t.Fatalf("decoded %d back-references, err %v; want %d", n, err, fleet-1)
	}
	if allocs > 1 {
		t.Errorf("%.1f allocations per back-referencing vehicle, want ≤ 1 (the report)", allocs)
	}
}

// TestRunRoundTrip: a run frame's vehicles, handed out one by one by
// Next, equal the same vehicles sent as single frames, at non-zero offsets
// on either side of 1,000,000; NextRun returns each frame whole, and after
// Next has handed out part of a run, the rest of it.
func TestRunRoundTrip(t *testing.T) {
	for _, offset := range []int{37, 1000000 - 5} {
		fr, err := engine.Run(engine.Config{
			Fleet:       12,
			Workers:     2,
			IndexOffset: offset,
			Groups: []engine.ScenarioGroup{{
				Scenarios: attack.Scenarios()[:2],
				Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
				RootSeed:  0xC0FFEE,
			}},
			TrafficHorizon: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		vs := fr.Vehicles
		single := encodeStream(t, vs, wire.Trailer{Start: offset, Count: len(vs)})
		runs := withRun(t, vs[:1], len(vs)-1, wire.Trailer{Start: offset, Count: len(vs)})
		if counts := runCounts(t, runs); !slices.Equal(counts, []uint64{1, uint64(len(vs) - 1)}) {
			t.Fatalf("offset %d: run counts %v, want [1 %d]", offset, counts, len(vs)-1)
		}
		if len(runs) >= len(single) {
			t.Errorf("offset %d: the run stream takes %d bytes, the single frames %d", offset, len(runs), len(single))
		}
		for name, stream := range map[string][]byte{"single": single, "runs": runs} {
			got, tr, err := drainStream(stream)
			if err != nil {
				t.Fatalf("offset %d, %s: drain: %v", offset, name, err)
			}
			if tr != (wire.Trailer{Start: offset, Count: len(vs)}) {
				t.Errorf("offset %d, %s: trailer %+v", offset, name, tr)
			}
			if len(got) != len(vs) {
				t.Fatalf("offset %d, %s: decoded %d vehicles, want %d", offset, name, len(got), len(vs))
			}
			for i := range vs {
				if !reflect.DeepEqual(*got[i], vs[i]) {
					t.Errorf("offset %d, %s: vehicle %d diverged:\n got %+v\nwant %+v", offset, name, vs[i].Index, *got[i], vs[i])
				}
			}
		}

		r := wire.NewReader(bytes.NewReader(runs))
		for _, want := range []struct{ index, n int }{{offset, 1}, {offset + 1, len(vs) - 1}} {
			v, n, err := r.NextRun()
			if err != nil || v.Index != want.index || n != want.n {
				t.Fatalf("offset %d: NextRun = index %v, %d, %v; want %d, %d", offset, v, n, err, want.index, want.n)
			}
		}
		r = wire.NewReader(bytes.NewReader(runs))
		for i := 0; i < 3; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		v, n, err := r.NextRun()
		if err != nil || n != len(vs)-3 || !reflect.DeepEqual(*v, vs[3]) {
			t.Fatalf("offset %d: NextRun after three Next = %d vehicles, %v; want the %d from vehicle %d", offset, n, err, len(vs)-3, vs[3].Index)
		}
		if _, _, err := r.NextRun(); err != io.EOF {
			t.Fatalf("offset %d: NextRun after the last run = %v, want io.EOF", offset, err)
		}
	}
}

// TestRunCountRejected: a well-framed vehicle frame whose run count is
// zero, or carries Index+count past the largest int, is corruption; any
// other count decodes, however large, in one NextRun.
func TestRunCountRejected(t *testing.T) {
	vs := stampedVehicles(t, 1, attack.EnforceHPE)
	frames := splitFrames(t, encodeStream(t, vs, wire.Trailer{Count: 1}))
	recount := func(index int, count uint64) []byte {
		v := vs[0]
		v.Index = index
		p := splitFrames(t, encodeStream(t, []engine.VehicleReport{v}, wire.Trailer{}))[0]
		off := countAt(t, p)
		out := binary.AppendUvarint(bytes.Clone(p[:off]), count)
		return append(out, p[off+1:]...) // a count of one is one byte
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"zero", recount(0, 0)},
		{"past the largest int", recount(math.MaxInt-1, 2)},
		{"larger than any int", recount(0, math.MaxUint64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := wire.NewReader(bytes.NewReader(joinFrames(tc.payload, frames[1])))
			if _, _, err := r.NextRun(); !errors.Is(err, wire.ErrFrameChecksum) {
				t.Fatalf("err = %v, want ErrFrameChecksum", err)
			}
			if _, err := r.Next(); !errors.Is(err, wire.ErrFrameChecksum) {
				t.Errorf("Next after error = %v, want sticky ErrFrameChecksum", err)
			}
		})
	}
	r := wire.NewReader(bytes.NewReader(joinFrames(recount(math.MaxInt-(1<<40), 1<<40), frames[1])))
	if v, n, err := r.NextRun(); err != nil || n != 1<<40 || v.Index != math.MaxInt-(1<<40) {
		t.Fatalf("NextRun = %v, %d, %v; want a run of 2^40 vehicles ending at the largest int", v, n, err)
	}
}

// TestDecodeVehiclePayloadRejectsRun: a lone payload is a run of one, so
// an inline run frame's payload is rejected.
func TestDecodeVehiclePayloadRejectsRun(t *testing.T) {
	vs := stampedVehicles(t, 1, attack.EnforceHPE)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteRun(&vs[0], 0); err == nil {
		t.Error("WriteRun wrote a run of no vehicles")
	}
	if err := w.WriteRun(&vs[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrailer(wire.Trailer{Count: 2}); err != nil {
		t.Fatal(err)
	}
	p := splitFrames(t, buf.Bytes())[0]
	if count, tag := runAt(t, p); count != 2 || p[tag] != 0 {
		t.Fatalf("run count %d, matrix tag %d; want an inline run of 2", count, p[tag])
	}
	if _, err := wire.DecodeVehiclePayload(p[1:]); err == nil {
		t.Error("run payload accepted")
	}
}
