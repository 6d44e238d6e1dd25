package campaign

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/engine"
)

// determinismSpec is compact but covers every construct that could disturb
// cross-worker stability: pick sampling, flood rate rules with pooled
// behavioural state, stage predicates, and a per-family regime override.
const determinismSpec = `
campaign "det" version 1 {
  seed 99
  regimes none, hpe

  mutate "mut" {
    attackers Infotainment, Sensors
    placements inside, outside
    repeats 1, 2
    pick 12
    probe off
  }

  flood "fld" {
    regimes hpe, behaviour
    id 0x300
    payload EE01
    team Telematics
    rates 300us
    frames 30
    threshold 9
  }

  staged "stg" {
    attackers Infotainment
    goal firmware-modified
    stage "inject" { inject 0x10 01 x 2 }
    stage "persist" {
      proceed propulsion-off
      inject 0x600 BEEF x 2
    }
  }
}
`

func determinismPlan(t *testing.T) *Plan {
	t.Helper()
	plan, err := (Compiler{}).Compile(MustParse(determinismSpec))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSweepByteIdenticalAcrossWorkers is the campaign half of the engine's
// determinism contract: the rendered CampaignReport must not change with
// the worker count. Runs under -race in CI, which also exercises the pooled
// arenas' single-owner confinement across the campaign path.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	plan := determinismPlan(t)
	base, err := Sweep(plan, SweepConfig{Fleet: 6, Workers: 1, RootSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		rep, err := Sweep(plan, SweepConfig{Fleet: 6, Workers: w, RootSeed: 1234})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.String() != base.String() {
			t.Errorf("workers=%d report differs from workers=1:\n--- w=1\n%s--- w=%d\n%s",
				w, base, w, rep)
		}
	}
}

// TestSweepPooledMatchesFresh requires the pooled batched default and the
// fresh-stack NoBatch oracle to render byte-identical campaign reports.
func TestSweepPooledMatchesFresh(t *testing.T) {
	plan := determinismPlan(t)
	pooled, err := Sweep(plan, SweepConfig{Fleet: 5, RootSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Sweep(plan, SweepConfig{Fleet: 5, RootSeed: 77, NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if pooled.String() != fresh.String() {
		t.Errorf("pooled and fresh campaign reports differ:\n--- pooled\n%s--- fresh\n%s", pooled, fresh)
	}
}

// TestSweepSeedsDecorrelate checks that the campaign seed and the sweep
// root seed both reach the per-vehicle derivation: changing either changes
// the report.
func TestSweepSeedsDecorrelate(t *testing.T) {
	plan := determinismPlan(t)
	a, err := Sweep(plan, SweepConfig{Fleet: 2, RootSeed: 1, ErrorRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(plan, SweepConfig{Fleet: 2, RootSeed: 2, ErrorRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("changing the root seed did not change the report")
	}
}

// TestSweepMatchesFamilyMajorReference re-derives every family's outcome the
// way the retired family-major executor did — one engine run per family with
// that family's derived fleet root, each running its own live phase — and
// requires the vehicle-major Sweep to match it family for family. Family
// roots are positional (VehicleSeed(root^famSeed, index)), so family-order
// permutation invariance is asserted at the engine layer
// (engine.TestGroupsPermutationInvariant); this test pins the campaign
// layer's seed derivation and fold on top of it.
func TestSweepMatchesFamilyMajorReference(t *testing.T) {
	plan := determinismPlan(t)
	const fleet, root = 5, uint64(4242)
	rep, err := Sweep(plan, SweepConfig{Fleet: fleet, RootSeed: root})
	if err != nil {
		t.Fatal(err)
	}
	h, err := attack.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	for fi := range plan.Families {
		fam := &plan.Families[fi]
		fr, err := engine.Run(engine.Config{
			Fleet: fleet,
			Groups: []engine.ScenarioGroup{{
				Scenarios: fam.Scenarios,
				Regimes:   fam.Regimes,
				RootSeed:  engine.VehicleSeed(root^fam.Seed, fi),
			}},
			TrafficHorizon: 10 * time.Millisecond,
			Harness:        h,
			SkipMAC:        true,
		})
		if err != nil {
			t.Fatalf("family-major reference %q: %v", fam.Name, err)
		}
		if !reflect.DeepEqual(rep.Families[fi].Regimes, fr.Attacks) {
			t.Errorf("family %q diverged from its family-major reference:\nsweep:     %+v\nreference: %+v",
				fam.Name, rep.Families[fi].Regimes, fr.Attacks)
		}
	}
}
