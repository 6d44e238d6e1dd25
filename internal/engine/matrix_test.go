package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/car"
)

// matrixConfig is a two-group sweep with the MAC probe on: the first
// group's units are single cells, the second's mix single cells with two
// forked buckets, under three regimes.
func matrixConfig(workers int) Config {
	all := attack.Scenarios()
	var withSetup []attack.Scenario
	for _, sc := range all {
		if sc.Setup != nil {
			withSetup = append(withSetup, sc)
		}
	}
	bravo := append([]attack.Scenario(nil), all[3:6]...)
	bravo = append(bravo, forked(withSetup[0], 7)...)
	bravo = append(bravo, forked(withSetup[1], 8)...)
	return Config{
		Fleet:   9,
		Workers: workers,
		Groups: []ScenarioGroup{
			{Name: "alpha", Scenarios: all, Regimes: []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE}, RootSeed: 0xA11CE},
			{Name: "bravo", Scenarios: bravo, Regimes: []attack.Enforcement{attack.EnforceHPE, attack.EnforceBehaviour, attack.EnforceSoftware}, RootSeed: 0xB0B},
		},
		TrafficHorizon: 5 * time.Millisecond,
	}
}

// forked returns three variants of sc that keep its Setup under one prefix
// key and repeat its injections once, twice and three times: PlanBatches
// puts them in one bucket, whose cells fork from a checkpoint.
func forked(sc attack.Scenario, key uint64) []attack.Scenario {
	out := make([]attack.Scenario, 3)
	for i := range out {
		v := sc
		v.Name = fmt.Sprintf("%s x%d", sc.Name, i+1)
		v.Injections = append([]attack.Injection(nil), sc.Injections...)
		for j := range v.Injections {
			v.Injections[j].Repeat = i + 1
		}
		v.PrefixKey = key
		out[i] = v
	}
	return out
}

// TestVisitParallelMatchesVisit: vehicle 0's visit with its cells split
// across goroutines returns exactly the report of the one-goroutine
// supervised visit, at worker counts below, at and above the host's CPUs
// and above the unit count.
func TestVisitParallelMatchesVisit(t *testing.T) {
	for _, workers := range []int{2, 3, 8, 100} {
		cfg := matrixConfig(workers)
		cfg.Fleet = workers
		sh, err := newShared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := newArena(sh)
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		want, err := sh.visit(a, 37, 0, &h)
		if err != nil || !h.IsZero() {
			t.Fatalf("workers=%d: supervised visit: %v, health %+v", workers, err, h)
		}
		b, err := newArena(sh)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := sh.visitParallel(b, 37)
		if !ok {
			t.Fatalf("workers=%d: the parallel visit failed", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel visit\n%+v\nwant the supervised visit's\n%+v", workers, got, want)
		}
	}
}

// failingConfig is matrixConfig with bad inserted mid-matrix in the
// second group.
func failingConfig(workers int, bad []attack.Scenario) Config {
	cfg := matrixConfig(workers)
	g := &cfg.Groups[1]
	g.Scenarios = slices.Insert(slices.Clone(g.Scenarios), len(g.Scenarios)/2, bad...)
	return cfg
}

// TestParallelMatrixFallsBack: a cell that fails on the parallel matrix
// drops it, and vehicle 0 runs the supervised visit instead, so the sweep
// renders the same report, books the same Health and returns the same
// error as a one-worker sweep. In one case a single cell's Setup panics;
// in the other a forked bucket's shared Setup returns an error.
func TestParallelMatrixFallsBack(t *testing.T) {
	sc := attack.Scenarios()[2]
	sc.Name += " (failing setup)"
	panics, refuses := sc, sc
	panics.Setup = func(*car.Car) error { panic("setup exploded") }
	refuses.Setup = func(*car.Car) error { return errors.New("setup refused") }
	for _, tc := range []struct {
		name string
		bad  []attack.Scenario
	}{
		{"panic", []attack.Scenario{panics}},
		{"error", forked(refuses, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, err := newShared(failingConfig(4, tc.bad))
			if err != nil {
				t.Fatal(err)
			}
			a, err := newArena(sh)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sh.visitParallel(a, 0); ok {
				t.Fatal("the parallel visit ran a failing cell and reported success")
			}

			run := func(workers int) (string, Health, string) {
				fr, err := Run(failingConfig(workers, tc.bad))
				if err == nil {
					t.Fatalf("workers=%d: a sweep with a failing cell returned no error", workers)
				}
				fr.Workers = 0 // the header echoes the worker count
				return fr.String(), fr.Health, err.Error()
			}
			report, health, errText := run(1)
			if health.Unrecoverable == 0 || health.Quarantines == 0 {
				t.Fatalf("workers=1: the failing cell was not booked: %+v", health)
			}
			gotReport, gotHealth, gotErr := run(4)
			if gotReport != report {
				t.Errorf("workers=4 report:\n%s\nwant workers=1's:\n%s", gotReport, report)
			}
			if gotHealth != health {
				t.Errorf("workers=4 health %+v, want %+v", gotHealth, health)
			}
			if gotErr != errText {
				t.Errorf("workers=4 error:\n%s\nwant workers=1's:\n%s", gotErr, errText)
			}
		})
	}
}
