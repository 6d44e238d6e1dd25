package wire_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

// quickstartVehicles sweeps a small fleet through the shipped quickstart
// campaign — the corpus the fuzzer mutates is real production payloads, not
// synthetic fixtures (the FuzzParse pattern: seed from shipped examples).
func quickstartVehicles(f *testing.F) []engine.VehicleReport {
	f.Helper()
	src, err := os.ReadFile("../../../examples/campaigns/quickstart.campaign")
	if err != nil {
		f.Fatal(err)
	}
	spec, err := campaign.Parse(string(src))
	if err != nil {
		f.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		f.Fatal(err)
	}
	ecfg, err := campaign.EngineConfig(plan, campaign.SweepConfig{
		Fleet: 3, Workers: 2, RootSeed: 42,
	})
	if err != nil {
		f.Fatal(err)
	}
	fr, err := engine.Run(ecfg)
	if err != nil {
		f.Fatal(err)
	}
	return fr.Vehicles
}

// FuzzWireCodec fuzzes both decoding surfaces of the binary shard wire:
//
//  1. Stream safety — arbitrary bytes fed through a Reader must never
//     panic, whatever the mutator does to framing, lengths, run counts or
//     payloads. The stream drains run by run (a mutated count can claim
//     any number of vehicles), and again through Next for a bounded
//     number of vehicles.
//  2. Payload fixed point — any byte string the vehicle decoder accepts
//     must re-encode canonically: encode(decode(data)) is a fixed point
//     under a further decode/encode round trip. (data itself need not be
//     canonical — uvarints admit non-minimal forms — which is why the
//     identity is asserted on enc1/enc2, not on data.)
//  3. Framed round trip — a decoded vehicle written twice through the real
//     Writer (inline, then as a matrix back-reference) and then as the
//     head of a run of three must come back structurally intact, every
//     copy, with its trailer.
//
// The corpus is seeded from a real quickstart campaign sweep so the
// mutator starts from production-shaped payloads, plus a stream whose
// matrix changes, a stream whose only vehicle frame back-references a
// matrix it never sent, and a stamped shard's stream: its first vehicle
// and one run frame of the rest.
func FuzzWireCodec(f *testing.F) {
	vs := quickstartVehicles(f)
	for i := range vs {
		f.Add(wire.AppendVehicle(nil, &vs[i]))
	}
	// A whole stream (header + frames + trailer) seeds the framing branch.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := range vs {
		if err := w.WriteVehicle(&vs[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.WriteTrailer(wire.Trailer{Start: 0, Count: len(vs), Err: "boom"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CSW\x01"))
	a := stampedVehicles(f, 3, attack.EnforceNone, attack.EnforceHPE)
	b := stampedVehicles(f, 2, attack.EnforceHPE)
	f.Add(encodeStream(f, []engine.VehicleReport{a[0], a[1], b[0], b[1], a[2]}, wire.Trailer{Count: 5}))
	frames := splitFrames(f, encodeStream(f, a[:2], wire.Trailer{Count: 2}))
	f.Add(joinFrames(frames[1], frames[2]))
	f.Add(withRun(f, vs[:1], 999, wire.Trailer{Count: 1000}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Stream decode: drain until EOF or error; must not panic.
		r := wire.NewReader(bytes.NewReader(data))
		for {
			if _, _, err := r.NextRun(); err != nil {
				break
			}
		}
		_, _ = r.Trailer()
		r = wire.NewReader(bytes.NewReader(data))
		for range 4096 {
			if _, err := r.Next(); err != nil {
				break
			}
		}

		// 2. Payload fixed point.
		v, err := wire.DecodeVehiclePayload(data)
		if err != nil {
			return // rejected input; safety already proven above
		}
		enc1 := wire.AppendVehicle(nil, v)
		v2, err := wire.DecodeVehiclePayload(enc1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2 := wire.AppendVehicle(nil, v2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode∘decode not a fixed point:\nenc1 %x\nenc2 %x", enc1, enc2)
		}

		// 3. Framed round trip through the real Writer/Reader; the second
		// copy's matrix travels as a back-reference, and the third copy
		// heads a run of three (when its index leaves room for one).
		runs := []int{1, 1}
		if v.Index <= math.MaxInt-3 {
			runs = append(runs, 3)
		}
		var stream bytes.Buffer
		sw := wire.NewWriter(&stream)
		for _, n := range runs {
			if err := sw.WriteRun(v, n); err != nil {
				t.Fatalf("WriteRun: %v", err)
			}
		}
		want := wire.Trailer{Start: v.Index, Count: len(runs), Err: "fuzz"}
		if err := sw.WriteTrailer(want); err != nil {
			t.Fatalf("WriteTrailer: %v", err)
		}
		sr := wire.NewReader(bytes.NewReader(stream.Bytes()))
		for i, n := range runs {
			got, gotN, err := sr.NextRun()
			if err != nil || gotN != n {
				t.Fatalf("framed decode of copy %d: a run of %d, %v; want %d", i, gotN, err, n)
			}
			if enc3 := wire.AppendVehicle(nil, got); !bytes.Equal(enc1, enc3) {
				t.Fatalf("framed round trip changed copy %d's vehicle payload", i)
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("expected EOF after trailer, got %v", err)
		}
		if tr, err := sr.Trailer(); err != nil || tr != want {
			t.Fatalf("trailer = %+v, %v; want %+v", tr, err, want)
		}
	})
}
