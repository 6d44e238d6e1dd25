package risk

import (
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/car"
)

// determinismSpec keeps the sweep small but covers all three synthesized
// roles: CONN-1 contributes tamper+dos+chain, EVECU-3 a goal-bearing flood,
// INFO-2 a precondition-bound (setup-inheriting) mutate family.
func determinismSpec() *Spec {
	return &Spec{
		Model:   "connected-car",
		Seed:    99,
		Threats: []string{car.ThreatConnCritModify, car.ThreatECUTrackingOff, car.ThreatInfoStatusMod},
	}
}

// TestProfileByteIdenticalAcrossWorkers is the risk half of the engine's
// determinism contract: the rendered Profile must not change with the
// worker count. Runs under -race in CI, exercising the pooled arenas across
// the whole synthesize → sweep → calibrate path.
func TestProfileByteIdenticalAcrossWorkers(t *testing.T) {
	base, err := Run(determinismSpec(), campaign.SweepConfig{Fleet: 6, Workers: 1, RootSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		out, err := Run(determinismSpec(), campaign.SweepConfig{Fleet: 6, Workers: w, RootSeed: 1234})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if out.Profile.String() != base.Profile.String() {
			t.Errorf("workers=%d profile differs from workers=1:\n--- w=1\n%s--- w=%d\n%s",
				w, base.Profile, w, out.Profile)
		}
	}
}

// TestProfilePooledMatchesFresh requires the pooled batched default and the
// fresh-stack NoBatch oracle to calibrate byte-identical profiles.
func TestProfilePooledMatchesFresh(t *testing.T) {
	pooled, err := Run(determinismSpec(), campaign.SweepConfig{Fleet: 5, RootSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(determinismSpec(), campaign.SweepConfig{Fleet: 5, RootSeed: 77, NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Profile.String() != fresh.Profile.String() {
		t.Errorf("pooled and fresh profiles differ:\n--- pooled\n%s--- fresh\n%s",
			pooled.Profile, fresh.Profile)
	}
}

// TestProfileSeedsReachSweep checks both seeds matter: the campaign seed
// drives family sub-seed derivation, the root seed the per-vehicle
// derivation — changing either must change the swept report.
func TestProfileSeedsReachSweep(t *testing.T) {
	base, err := Run(determinismSpec(), campaign.SweepConfig{Fleet: 2, RootSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := Run(determinismSpec(), campaign.SweepConfig{Fleet: 2, RootSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Report.String() == base.Report.String() {
		t.Error("changing the root seed did not change the swept report")
	}
	sp := determinismSpec()
	sp.Seed = 100
	respecced, err := Run(sp, campaign.SweepConfig{Fleet: 2, RootSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b []uint64
	for _, f := range base.Plan.Families {
		a = append(a, f.Seed)
	}
	for _, f := range respecced.Plan.Families {
		b = append(b, f.Seed)
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("family %d sub-seed did not move with the campaign seed", i)
		}
	}
}

// TestSynthesizeDeterministic: same analysis, same config — identical specs
// across repeated syntheses (the expansion is a pure function).
func TestSynthesizeDeterministic(t *testing.T) {
	a1, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Synthesize(a1, SynthesisConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Synthesize(a2, SynthesisConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Error("synthesis is not deterministic")
	}
	if _, err := (campaign.Compiler{}).Compile(s1); err != nil {
		t.Fatal(err)
	}
}
