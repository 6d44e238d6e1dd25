package campaign

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestSweepBatchedMatchesOracle is the acceptance gate of the batched
// executor: the default path (prefix-checkpointed batching + cross-vehicle
// stamping) must produce a CampaignReport identical to the single-worker
// fresh-stack oracle's (NoBatch) at several worker counts, and
// so must the oracle itself, with and without live-phase error injection
// (the one knob that keeps the live phase executing per vehicle).
func TestSweepBatchedMatchesOracle(t *testing.T) {
	plan := determinismPlan(t)
	for _, errRate := range []float64{0, 0.03} {
		cfg := SweepConfig{Fleet: 6, Workers: 1, RootSeed: 555, ErrorRate: errRate, NoBatch: true}
		oracle, err := Sweep(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, noBatch := range []bool{false, true} {
				name := fmt.Sprintf("err=%v/workers=%d/noBatch=%v", errRate, workers, noBatch)
				rep, err := Sweep(plan, SweepConfig{
					Fleet: 6, Workers: workers, RootSeed: 555,
					ErrorRate: errRate, NoBatch: noBatch,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(rep, oracle) {
					t.Errorf("%s: report diverged from the workers=1 oracle:\n--- oracle\n%+v\n--- got\n%+v", name, oracle, rep)
				}
			}
		}
	}
}

// TestCompilePrefixKeys pins the prefix-sharing metadata the compiler emits:
// mutate variants key per base threat, flood and staged families share one
// key family-wide, and no scenario is left unkeyed (an unkeyed cell would
// silently fall back to the unbatched singleton path).
func TestCompilePrefixKeys(t *testing.T) {
	plan := determinismPlan(t)
	for fi := range plan.Families {
		fam := &plan.Families[fi]
		keys := map[uint64]bool{}
		for si := range fam.Scenarios {
			key := fam.Scenarios[si].PrefixKey
			if key == 0 {
				t.Errorf("family %s scenario %d has no prefix key", fam.Name, si)
			}
			keys[key] = true
		}
		switch fam.Kind {
		case KindFlood, KindStaged:
			if len(keys) != 1 {
				t.Errorf("family %s (%s): want one family-wide prefix key, got %d", fam.Name, fam.Kind, len(keys))
			}
		case KindMutate:
			// The det spec's mutate family draws from the full Table I
			// catalog; its sampled variants must not all collapse into one
			// bucket, and variants of one base must share their key.
			if len(keys) < 2 {
				t.Errorf("family %s (mutate): want per-base prefix keys, got %d distinct", fam.Name, len(keys))
			}
		}
	}
}
