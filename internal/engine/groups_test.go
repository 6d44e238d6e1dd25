package engine

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/attack"
)

// testGroups builds three scenario groups with distinct shapes and seeds:
// different slices of the Table I matrix and different regime sweeps, the
// way a compiled campaign's families differ. Each group carries its own
// fleet root, so permuting the groups must not change any group's outcome.
func testGroups() []ScenarioGroup {
	all := attack.Scenarios()
	return []ScenarioGroup{
		{Name: "alpha", Scenarios: all[:3], Regimes: []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE}, RootSeed: 0xA11CE},
		{Name: "bravo", Scenarios: all[3:6], Regimes: []attack.Enforcement{attack.EnforceHPE}, RootSeed: 0xB0B},
		{Name: "chain", Scenarios: all[6:8], Regimes: []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE, attack.EnforceBehaviour}, RootSeed: 0xC4A1},
	}
}

func groupConfig(groups []ScenarioGroup, workers int, noBatch bool) Config {
	return Config{
		Fleet:          6,
		Workers:        workers,
		Groups:         groups,
		TrafficHorizon: 5 * time.Millisecond,
		ErrorRate:      0.02,
		NoBatch:        noBatch,
		SkipMAC:        true,
	}
}

// TestGroupsMatchFamilyMajorRuns is the vehicle-major executor's equivalence
// oracle: one multi-group Run must reproduce, group for group, what the
// retired family-major executor computed — one single-group engine run per
// family, with a full barrier in between. Every family-major run executes
// its own live phase; the multi-group run's live phase is seeded by the
// first group's root, so its live counters must match the first run's.
func TestGroupsMatchFamilyMajorRuns(t *testing.T) {
	groups := testGroups()
	multi, err := Run(groupConfig(groups, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Groups) != len(groups) {
		t.Fatalf("got %d group reports, want %d", len(multi.Groups), len(groups))
	}
	for gi, g := range groups {
		single, err := Run(Config{
			Fleet:          6,
			Workers:        2,
			Groups:         []ScenarioGroup{g},
			TrafficHorizon: 5 * time.Millisecond,
			ErrorRate:      0.02,
			SkipMAC:        true,
		})
		if err != nil {
			t.Fatalf("family-major run %d: %v", gi, err)
		}
		if !reflect.DeepEqual(multi.Groups[gi].Regimes, single.Attacks) {
			t.Errorf("group %q diverged from its family-major run:\nmulti:  %+v\nsingle: %+v",
				g.Name, multi.Groups[gi].Regimes, single.Attacks)
		}
		if gi == 0 {
			// The live background phase runs once per vehicle visit with the
			// first group's seed — exactly what the first family-major run
			// measured.
			if multi.FramesDelivered != single.FramesDelivered || multi.BusErrors != single.BusErrors ||
				multi.MeanUtilisation != single.MeanUtilisation {
				t.Errorf("live counters diverged: multi {%d %d %v} vs family-major {%d %d %v}",
					multi.FramesDelivered, multi.BusErrors, multi.MeanUtilisation,
					single.FramesDelivered, single.BusErrors, single.MeanUtilisation)
			}
		}
	}
}

// TestGroupsPermutationInvariant checks cross-group isolation inside a
// vehicle visit: executing the groups in a different order (each still
// carrying its own fleet root) must not change any group's fleet-merged
// outcome, batched or oracle. Note the invariance lives at the engine layer —
// campaign.Sweep derives each family's root from its spec position, so
// permuting a *spec* legitimately re-seeds its families.
func TestGroupsPermutationInvariant(t *testing.T) {
	groups := testGroups()
	perm := []ScenarioGroup{groups[2], groups[0], groups[1]}
	for _, noBatch := range []bool{false, true} {
		base, err := Run(groupConfig(groups, 2, noBatch))
		if err != nil {
			t.Fatal(err)
		}
		permuted, err := Run(groupConfig(perm, 2, noBatch))
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string][]attack.RegimeSummary{}
		for _, gr := range permuted.Groups {
			byName[gr.Name] = gr.Regimes
		}
		for _, gr := range base.Groups {
			if !reflect.DeepEqual(gr.Regimes, byName[gr.Name]) {
				t.Errorf("noBatch=%v: group %q changed under permutation:\noriginal: %+v\npermuted: %+v",
					noBatch, gr.Name, gr.Regimes, byName[gr.Name])
			}
		}
	}
}

// TestGroupsPooledMatchesFreshAcrossWorkers extends the zero-rebuild
// contract to multi-group runs: pooled batched and fresh NoBatch
// vehicle-major sweeps agree on every group at every worker count, and
// worker count never changes the merged outcome.
func TestGroupsPooledMatchesFreshAcrossWorkers(t *testing.T) {
	groups := testGroups()
	base, err := Run(groupConfig(groups, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		pooled, err := Run(groupConfig(groups, w, false))
		if err != nil {
			t.Fatalf("workers=%d pooled: %v", w, err)
		}
		fresh, err := Run(groupConfig(groups, w, true))
		if err != nil {
			t.Fatalf("workers=%d fresh: %v", w, err)
		}
		if !reflect.DeepEqual(pooled.Groups, fresh.Groups) {
			t.Errorf("workers=%d: pooled and fresh group reports differ", w)
		}
		if !reflect.DeepEqual(pooled.Groups, base.Groups) {
			t.Errorf("workers=%d: group reports differ from workers=1", w)
		}
		if pooled.String() != base.String() && w == base.Workers {
			t.Errorf("workers=%d: rendered report differs from baseline", w)
		}
	}
}

// TestGroupsValidation pins the explicit-group contract: a run without
// groups, or a group without scenarios or regimes, is a configuration
// error, not a silent no-op or a hidden default sweep.
func TestGroupsValidation(t *testing.T) {
	if _, err := Run(Config{Fleet: 1}); err == nil {
		t.Error("run with no groups did not error")
	}
	if _, err := Run(Config{Groups: []ScenarioGroup{{Name: "empty"}}}); err == nil {
		t.Error("group with no scenarios did not error")
	}
	if _, err := Run(Config{Groups: []ScenarioGroup{{
		Name: "noregimes", Scenarios: attack.Scenarios()[:1],
	}}}); err == nil {
		t.Error("group with no regimes did not error")
	}
}
