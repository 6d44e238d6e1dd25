package attack

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/car"
)

// allRegimes is the full enforcement sweep the checkpoint contract must hold
// under: each regime installs a different inline-filter stack, so each
// exercises a different slice of the captured state.
var allRegimes = []Enforcement{EnforceNone, EnforceSoftware, EnforceHPE, EnforceBehaviour}

// checkpointScenarios assembles one representative scenario per campaign
// family kind: every Table I baseline (the mutate bases, with their Setup
// prefixes), a coordinated multi-attacker flood, and a predicate-gated
// staged kill chain.
func checkpointScenarios() []Scenario {
	out := Scenarios()
	out = append(out, floodScenario([]Attacker{
		{Name: car.NodeTelematics, Placement: Inside},
		{Name: "Rogue-X", Placement: Outside},
	}, 30, 300*time.Microsecond, 9))
	out = append(out, stagedScenario())
	return out
}

// TestCheckpointRestoreMatchesReset is the property test behind the arena's
// prefix checkpointing: capturing after the prefix, running a *different*
// dirtying cell from the checkpoint, restoring, and then running the
// scenario tail must produce a Result byte-identical to the cold path
// (reset + full execute) — for every scenario kind under every regime. The
// dirtying cell is the adversarial part: it compromises controllers,
// attaches rogue nodes, advances the virtual clock, spends behavioural rate
// budget and pushes the vehicle into fail-safe state, all of which restore
// must rewind.
func TestCheckpointRestoreMatchesReset(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := checkpointScenarios()
	for _, enf := range allRegimes {
		for si := range scenarios {
			sc := scenarios[si]
			// Cold oracle: the exact per-cell path Arena.Run takes.
			want, err := a.Run(sc, enf)
			if err != nil {
				t.Fatalf("%s/%s oracle: %v", sc.ThreatID, enf, err)
			}

			// Checkpointed path: prefix once, dirty the vehicle with another
			// scenario's tail, rewind, then run the scenario under test.
			a.resetForRegime(enf)
			if err := a.h.runSetup(a.car, sc); err != nil {
				t.Fatal(err)
			}
			var ck checkpoint
			a.capture(&ck, enf)
			dirty := scenarios[(si+1)%len(scenarios)]
			if _, err := a.h.executeTail(a.car, dirty, enf, &a.inj); err != nil {
				t.Fatalf("%s/%s dirtying tail: %v", sc.ThreatID, enf, err)
			}
			if err := a.restore(&ck, enf); err != nil {
				t.Fatalf("%s/%s restore: %v", sc.ThreatID, enf, err)
			}
			got, err := a.h.executeTail(a.car, sc, enf, &a.inj)
			if err != nil {
				t.Fatalf("%s/%s forked tail: %v", sc.ThreatID, enf, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %s: forked result diverged from cold run\ncold:   %+v\nforked: %+v",
					sc.ThreatID, enf, want, got)
			}

			// Fork twice more from the same checkpoint: restores must be
			// idempotent, not one-shot.
			for i := 0; i < 2; i++ {
				if err := a.restore(&ck, enf); err != nil {
					t.Fatalf("%s/%s re-restore: %v", sc.ThreatID, enf, err)
				}
				again, err := a.h.executeTail(a.car, sc, enf, &a.inj)
				if err != nil {
					t.Fatalf("%s/%s refork %d: %v", sc.ThreatID, enf, i, err)
				}
				if !reflect.DeepEqual(again, want) {
					t.Errorf("%s under %s: refork %d diverged from cold run", sc.ThreatID, enf, i)
				}
			}
		}
	}
}

// TestRunSummariesBatchedMatchesOracle requires a drained BatchRun cursor to
// aggregate byte-identically to the scenario-major RunMatrix oracle when
// scenarios share a prefix bucket, when buckets are interleaved (the order
// the campaign compiler's pick shuffle produces), and when keys are absent
// (all-singleton degenerate plan).
func TestRunSummariesBatchedMatchesOracle(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	base := checkpointScenarios()
	// mutateFamily mimics the campaign compiler's mutate expansion: variants
	// of one base share its Setup verbatim, so they may legally share a
	// prefix bucket. Pick a base with a real Setup so the shared prefix is
	// non-trivial.
	mutateFamily := func(key uint64) []Scenario {
		var withSetup Scenario
		found := false
		for _, sc := range Scenarios() {
			if sc.Setup != nil {
				withSetup, found = sc, true
				break
			}
		}
		if !found {
			t.Fatal("no Table I scenario with a Setup prefix")
		}
		var out []Scenario
		for i, rep := range []int{1, 2, 3, 5} {
			v := withSetup
			v.Name = v.Name + " variant"
			v.Injections = append([]Injection(nil), withSetup.Injections...)
			for j := range v.Injections {
				v.Injections[j].Repeat = rep
				v.Injections[j].Gap = time.Duration(i+1) * stepTime
			}
			v.PrefixKey = key
			out = append(out, v)
		}
		return out
	}
	cases := map[string]func([]Scenario) []Scenario{
		"singletons": func(scs []Scenario) []Scenario { return scs },
		"mutate-bucket": func(scs []Scenario) []Scenario {
			// One shared-Setup mutate family bucketed together, the rest of
			// the catalog singleton.
			return append(scs, mutateFamily(7)...)
		},
		"interleaved": func(scs []Scenario) []Scenario {
			// Two valid bucket kinds scattered through the singleton catalog,
			// the shape the compiler's pick shuffle produces: a keyed mutate
			// family plus nil-Setup scenarios sharing a trivial prefix.
			out := append(scs, mutateFamily(7)...)
			for i := range out {
				if out[i].Setup == nil && out[i].PrefixKey == 0 {
					out[i].PrefixKey = uint64(2 + i%2)
				}
			}
			return out
		},
	}
	for name, build := range cases {
		scs := build(append([]Scenario(nil), base...))
		oracle, err := runMatrix(scs, allRegimes, a.Run)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		want := oracle.Regimes
		got := drainBatchRun(t, a, PlanBatches(scs, allRegimes...))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batched summaries diverged\noracle:  %+v\nbatched: %+v", name, want, got)
		}
	}
}
