package campaign

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
)

// chaosPlan is the shared fault mix of the supervisor property tests: every
// fault kind armed at rates high enough that a 6-vehicle sweep of the
// determinism campaign reliably hits each class.
func chaosPlan() *chaos.Plan {
	return &chaos.Plan{Seed: 77, Panic: 0.03, Corrupt: 0.03, Deadline: 0.02, Crash: 0.01}
}

// payload returns r without its containment ledger, so the payload halves
// of two reports can be compared independently of their Health.
func payload(r *CampaignReport) CampaignReport {
	p := *r
	p.Health, p.HealthEnabled = engine.Health{}, false
	return p
}

// TestChaosSweepPayloadMatchesFaultFree is the tentpole property: a sweep
// whose injected faults are all recovered by the supervisor (default
// persist=1, so every retry clears its fault) produces a payload report
// identical to the fault-free oracle's — only the Health may differ.
// Checked across worker counts, batched and NoBatch.
func TestChaosSweepPayloadMatchesFaultFree(t *testing.T) {
	plan := determinismPlan(t)
	clean, err := Sweep(plan, SweepConfig{Fleet: 6, Workers: 1, RootSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Health.IsZero() || clean.HealthEnabled {
		t.Fatalf("fault-free sweep carries health state: %+v", clean.Health)
	}
	cleanPayload := payload(clean)

	for _, noBatch := range []bool{false, true} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			rep, err := Sweep(plan, SweepConfig{
				Fleet: 6, Workers: w, RootSeed: 1234,
				NoBatch: noBatch, Chaos: chaosPlan(),
			})
			if err != nil {
				t.Fatalf("noBatch=%v workers=%d: %v", noBatch, w, err)
			}
			if rep.Health.IsZero() {
				t.Fatalf("noBatch=%v workers=%d: chaos sweep contained nothing — rates too low for the shape", noBatch, w)
			}
			if got := payload(rep); !reflect.DeepEqual(got, cleanPayload) {
				t.Errorf("noBatch=%v workers=%d: chaos payload diverged from fault-free oracle\n--- fault-free\n%+v\n--- chaos\n%+v",
					noBatch, w, cleanPayload, got)
			}
		}
	}
}

// TestChaosHealthDeterministicAcrossWorkers: the full report — Health
// included — must not change with the worker count, batched or NoBatch.
// (Batched and oracle ledgers may legitimately differ: checkpoint
// corruption only exists on the pooled batched path.)
func TestChaosHealthDeterministicAcrossWorkers(t *testing.T) {
	plan := determinismPlan(t)
	for _, noBatch := range []bool{false, true} {
		base, err := Sweep(plan, SweepConfig{
			Fleet: 6, Workers: 1, RootSeed: 1234,
			NoBatch: noBatch, Chaos: chaosPlan(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			rep, err := Sweep(plan, SweepConfig{
				Fleet: 6, Workers: w, RootSeed: 1234,
				NoBatch: noBatch, Chaos: chaosPlan(),
			})
			if err != nil {
				t.Fatalf("noBatch=%v workers=%d: %v", noBatch, w, err)
			}
			if !reflect.DeepEqual(rep, base) {
				t.Errorf("noBatch=%v: report (health included) differs between workers=1 and workers=%d\n--- w=1\n%+v\n--- w=%d\n%+v",
					noBatch, w, base, w, rep)
			}
		}
	}
}

// TestChaosDemotionFallsBackToOracle: faults that outlive the batched retry
// budget (persist = retries+1) demote their cells to the oracle path,
// which clears them — the sweep completes with demotions booked and the
// payload still identical to the fault-free run's.
func TestChaosDemotionFallsBackToOracle(t *testing.T) {
	plan := determinismPlan(t)
	// retries is the engine supervisor's fixed per-rung retry budget.
	const retries = 2
	clean, err := Sweep(plan, SweepConfig{Fleet: 4, Workers: 1, RootSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(plan, SweepConfig{
		Fleet: 4, Workers: 2, RootSeed: 99,
		Chaos: &chaos.Plan{Seed: 5, Panic: 0.02, Persist: retries + 1},
	})
	if err != nil {
		t.Fatalf("demotion sweep failed — oracle fallback did not clear persistent faults: %v", err)
	}
	if rep.Health.CellDemotions == 0 || rep.Health.VehicleDemotions == 0 {
		t.Fatalf("no demotions booked: %+v", rep.Health)
	}
	if rep.Health.Unrecoverable != 0 {
		t.Fatalf("demoted cells reported unrecoverable: %+v", rep.Health)
	}
	if got, want := payload(rep), payload(clean); !reflect.DeepEqual(got, want) {
		t.Errorf("payload diverged through demotion:\n--- fault-free\n%+v\n--- demoted\n%+v", want, got)
	}
}

// TestChaosUnrecoverableReturnsPartialReport: a fault that persists through
// every rung (batched retries, oracle demotion, oracle retries) fails the
// sweep — but the error arrives alongside a partial report whose Health
// ledger records the unrecoverable cells.
func TestChaosUnrecoverableReturnsPartialReport(t *testing.T) {
	plan := determinismPlan(t)
	rep, err := Sweep(plan, SweepConfig{
		Fleet: 3, Workers: 2, RootSeed: 7,
		Chaos: &chaos.Plan{Seed: 5, Panic: 1, Persist: 99},
	})
	if err == nil {
		t.Fatal("sweep with unrecoverable faults returned nil error")
	}
	if !errors.Is(err, engine.ErrUnrecoverable) {
		t.Fatalf("error %v does not wrap engine.ErrUnrecoverable", err)
	}
	if rep == nil {
		t.Fatal("no partial report alongside the unrecoverable error")
	}
	if rep.Health.Unrecoverable == 0 {
		t.Fatalf("partial report books no unrecoverable cells: %+v", rep.Health)
	}
}

// TestVerifySampleCleanRun: full-rate inline verification on a healthy sweep
// samples every forked cell, finds zero mismatches, and leaves the payload
// identical to the unsampled run's.
func TestVerifySampleCleanRun(t *testing.T) {
	plan := determinismPlan(t)
	clean, err := Sweep(plan, SweepConfig{Fleet: 4, Workers: 1, RootSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(plan, SweepConfig{Fleet: 4, Workers: 2, RootSeed: 42, VerifySample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Health.VerifySamples == 0 {
		t.Fatal("verify-sample 1.0 sampled nothing")
	}
	if rep.Health.VerifyMismatches != 0 {
		t.Fatalf("healthy batched path diverged from its oracle: %+v", rep.Health)
	}
	if !rep.HealthEnabled {
		t.Error("verify sampling did not arm the health section")
	}
	if got, want := payload(rep), payload(clean); !reflect.DeepEqual(got, want) {
		t.Errorf("verified payload diverged:\n--- clean\n%+v\n--- verified\n%+v", want, got)
	}
}
