package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
)

// TestMergeFoldMatchesMerge pins the refactor invariant the streaming
// shard merge rests on: folding vehicles one at a time through MergeFold
// renders byte-identically to Run's own batch merge of the same slice
// (same float summation order, same group folds, same health ledger).
func TestMergeFoldMatchesMerge(t *testing.T) {
	cfg := quickConfig(7, 3)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 0.2, Corrupt: 0.1}
	fr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := NewMergeFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fr.Vehicles {
		fold.Add(v)
	}
	streamed := fold.Finish()
	if got, want := streamed.String(), fr.String(); got != want {
		t.Errorf("MergeFold diverged from the run's merge\n--- run\n%s\n--- fold\n%s", want, got)
	}
	if streamed.Health != fr.Health {
		t.Errorf("health ledger moved: %+v vs %+v", streamed.Health, fr.Health)
	}
}

// TestOnVehicleOrdered pins the streaming emitter's contract: with many
// workers completing vehicles out of order, OnVehicle fires exactly once
// per vehicle, strictly in ascending index order, never concurrently.
func TestOnVehicleOrdered(t *testing.T) {
	cfg := quickConfig(24, 8)
	var got []int
	var inFlight atomic.Int32
	cfg.OnVehicle = func(v *VehicleReport) {
		if inFlight.Add(1) != 1 {
			t.Error("OnVehicle callbacks ran concurrently")
		}
		got = append(got, v.Index)
		inFlight.Add(-1)
	}
	fr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.Fleet {
		t.Fatalf("OnVehicle fired %d times, want %d", len(got), cfg.Fleet)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emission order broken at position %d: got index %d (full order %v)", i, idx, got)
		}
	}
	// The emitted reports are the ones the fleet report retains.
	for i := range fr.Vehicles {
		if fr.Vehicles[i].Index != i {
			t.Fatalf("report slice out of order at %d", i)
		}
	}
}

// TestOnVehicleOffsetIndices: a sharded child emits global indices — the
// callback sees IndexOffset-shifted values, in order.
func TestOnVehicleOffsetIndices(t *testing.T) {
	cfg := quickConfig(5, 2)
	cfg.IndexOffset = 100
	var got []int
	cfg.OnVehicle = func(v *VehicleReport) { got = append(got, v.Index) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for i, idx := range got {
		if idx != 100+i {
			t.Fatalf("global index at position %d = %d, want %d", i, idx, 100+i)
		}
	}
	if len(got) != 5 {
		t.Fatalf("OnVehicle fired %d times, want 5", len(got))
	}
}

// TestOnVehicleFiresOnFailedRun: vehicles that complete before an
// unrecoverable fault still stream out — the partial-report contract the
// shard driver's quarantine path depends on.
func TestOnVehicleFiresOnFailedRun(t *testing.T) {
	cfg := quickConfig(6, 2)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 1, Persist: 99}
	cfg.MaxRetries = 1
	var fired int
	last := -1
	cfg.OnVehicle = func(v *VehicleReport) {
		fired++
		if v.Index <= last {
			t.Errorf("emission order broken: %d after %d", v.Index, last)
		}
		last = v.Index
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("persistent chaos plan did not fail the run")
	}
	if fired != cfg.Fleet {
		t.Fatalf("OnVehicle fired %d times on a failed run, want %d (errored vehicles emit too)", fired, cfg.Fleet)
	}
}
