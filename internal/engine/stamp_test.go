package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/shard/wire"
)

func TestVINMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 7, 99999, 100000, 999999, 1000000, 9999999, 123456789} {
		if got, want := engine.VIN(i), fmt.Sprintf("VIN-%06d", i); got != want {
			t.Errorf("VIN(%d) = %q, want %q", i, got, want)
		}
	}
	// AppendRun slices a run's VINs out of one string, working out each
	// one's width from its index: put runs across the widths' changes,
	// negative indices and int wraparound included (a shard stream may
	// carry any index).
	for _, head := range []int{-1000002, -100002, -3, 999996, 9999996, math.MaxInt - 3} {
		for _, v := range engine.AppendRun(nil, &engine.VehicleReport{Index: head}, 8, 1)[1:] {
			if want := fmt.Sprintf("VIN-%06d", v.Index); v.VIN != want {
				t.Errorf("AppendRun from %d: vehicle %d carries VIN %q, want %q", head, v.Index, v.VIN, want)
			}
		}
	}
	// Put one stamped run across 999,999 -> 1,000,000, where VINs grow
	// from 10 to 11 bytes, and list it through Run, through AppendRun over
	// Aggregate's runs, and through shard.Run.
	cfg := stampConfig(2, 1000000-4, 0)
	root := cfg.Groups[0].RootSeed
	check := func(path string, vs []engine.VehicleReport) {
		t.Helper()
		if len(vs) != cfg.Fleet {
			t.Fatalf("%s listed %d vehicles, want %d", path, len(vs), cfg.Fleet)
		}
		for i := range vs {
			v := &vs[i]
			if want := cfg.IndexOffset + i; v.Index != want {
				t.Errorf("%s: vehicle %d carries index %d, want %d", path, i, v.Index, want)
			}
			if want := fmt.Sprintf("VIN-%06d", v.Index); v.VIN != want {
				t.Errorf("%s: vehicle %d carries VIN %q, want %q", path, v.Index, v.VIN, want)
			}
			if want := engine.VehicleSeed(root, v.Index); v.Seed != want {
				t.Errorf("%s: vehicle %d carries seed %#x, want %#x", path, v.Index, v.Seed, want)
			}
		}
	}
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Run", fr.Vehicles)

	var listed []engine.VehicleReport
	var runs []int
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	var werr error
	if _, err := engine.Aggregate(cfg, func(v *engine.VehicleReport, n int) {
		runs = append(runs, n)
		listed = engine.AppendRun(listed, v, n, root)
		werr = errors.Join(werr, w.WriteRun(v, n, root))
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, cfg.Fleet - 1}; !slices.Equal(runs, want) {
		t.Errorf("Aggregate emitted runs %v, want %v", runs, want)
	}
	check("Aggregate", listed)

	// shard.Run's index space starts at zero, so it cannot ask for this
	// range itself: its one spawned range is fed the runs written above,
	// under a trailer for the range it does ask for.
	if err := errors.Join(werr, w.WriteTrailer(wire.Trailer{Count: cfg.Fleet})); err != nil {
		t.Fatal(err)
	}
	whole := cfg
	whole.IndexOffset = 0
	sfr, err := shard.Run(shard.Config{Engine: whole, Shards: 1, Spawn: func(shard.Range) (shard.Stream, error) {
		return shard.NewWireStream(&buf, nil), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	check("shard.Run", sfr.Vehicles)
}

// stampConfig is a small multi-group sweep with the MAC probe on, so a
// stamp carries every section it can: group aggregates, their fold, MAC
// counts and (error-free) live counters.
func stampConfig(workers, offset int, errorRate float64) engine.Config {
	all := attack.Scenarios()
	return engine.Config{
		Fleet:       9,
		Workers:     workers,
		IndexOffset: offset,
		Groups: []engine.ScenarioGroup{
			{Name: "alpha", Scenarios: all[:3], Regimes: []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE}, RootSeed: 0xA11CE},
			{Name: "bravo", Scenarios: all[3:5], Regimes: []attack.Enforcement{attack.EnforceHPE, attack.EnforceBehaviour}, RootSeed: 0xB0B},
		},
		TrafficHorizon: 5 * time.Millisecond,
		ErrorRate:      errorRate,
	}
}

// shares reports whether two vehicles' attack sections point at the same
// backing arrays — i.e. whether b was stamped from a.
func shares(a, b *engine.VehicleReport) bool {
	return &a.Groups[0] == &b.Groups[0] && &a.Groups[0][0] == &b.Groups[0][0] && &a.Attacks[0] == &b.Attacks[0]
}

// TestStampedVehiclesMatchOracle is the engine-level check of the stamp's
// seed-invariance premise: in batched runs, a seeded sample of stamped
// vehicles must each equal its own single-vehicle oracle re-execution,
// whatever the worker count, shard offset or bus error rate.
func TestStampedVehiclesMatchOracle(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, offset := range []int{0, 37} {
			for _, rate := range []float64{0, 0.02} {
				cfg := stampConfig(workers, offset, rate)
				fr, err := engine.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 3; k++ {
					i := 1 + int(engine.VehicleSeed(uint64(workers), k)%uint64(cfg.Fleet-1))
					name := fmt.Sprintf("workers=%d offset=%d rate=%v vehicle=%d", workers, offset, rate, offset+i)
					if !shares(&fr.Vehicles[0], &fr.Vehicles[i]) {
						t.Errorf("%s: not stamped from the first vehicle", name)
					}
					one := cfg
					one.Fleet, one.IndexOffset, one.Workers, one.NoBatch = 1, offset+i, 1, true
					want, err := engine.Run(one)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if !reflect.DeepEqual(fr.Vehicles[i], want.Vehicles[0]) {
						t.Errorf("%s: stamped report differs from its oracle re-execution:\nstamped: %+v\noracle:  %+v",
							name, fr.Vehicles[i], want.Vehicles[0])
					}
				}
			}
		}
	}
}

// TestAggregateMatchesRun: Aggregate is Run without the per-vehicle
// section on every path a sweep takes — a fully stamped run (folded as one
// count), stamped attack sections over executed live phases, and chaos,
// verify-sampled and NoBatch runs where every vehicle executes — and its
// emitter's runs, expanded, are each index once, in order, with the report
// Run returns for it. A fully stamped range is emitted as its first
// vehicle and one run of the rest; every other vehicle is a run of one.
func TestAggregateMatchesRun(t *testing.T) {
	if _, err := engine.Aggregate(engine.Config{
		Groups:    stampConfig(1, 0, 0).Groups,
		OnVehicle: func(*engine.VehicleReport) {},
	}, nil); err == nil {
		t.Error("Aggregate accepted a Config with OnVehicle set")
	}
	for _, v := range []struct {
		name   string
		fleets []int
		edit   func(*engine.Config)
	}{
		{"stamped", []int{1, 2, 255, 256, 257, 515}, func(*engine.Config) {}},
		{"errors", []int{1, 2, 255, 256, 257, 515}, func(cfg *engine.Config) { cfg.ErrorRate = 0.02 }},
		{"chaos", []int{1, 2, 7}, func(cfg *engine.Config) { cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 0.2, Corrupt: 0.1} }},
		{"verify", []int{1, 2, 7}, func(cfg *engine.Config) { cfg.VerifySample = 0.3 }},
		{"no-batch", []int{1, 2, 7}, func(cfg *engine.Config) { cfg.NoBatch = true }},
	} {
		for _, fleet := range v.fleets {
			for _, workers := range []int{1, 2, 3} {
				for _, offset := range []int{0, 37} {
					name := fmt.Sprintf("%s/fleet=%d/workers=%d/offset=%d", v.name, fleet, workers, offset)
					cfg := stampConfig(workers, offset, 0)
					cfg.Fleet = fleet
					v.edit(&cfg)
					want, err := engine.Run(cfg)
					if err != nil {
						t.Fatalf("%s: Run: %v", name, err)
					}
					var emitted []engine.VehicleReport
					var runs []int
					root := cfg.Groups[0].RootSeed
					got, err := engine.Aggregate(cfg, func(r *engine.VehicleReport, n int) {
						runs = append(runs, n)
						emitted = append(emitted, *r)
						for i := 1; i < n; i++ {
							emitted = append(emitted, r.Member(root, r.Index+i))
						}
					})
					if err != nil {
						t.Fatalf("%s: Aggregate: %v", name, err)
					}
					if !reflect.DeepEqual(emitted, want.Vehicles) {
						t.Errorf("%s: Aggregate's expanded runs differ from the vehicles Run returns", name)
					}
					wantRuns := slices.Repeat([]int{1}, fleet)
					if v.name == "stamped" && fleet > 1 {
						wantRuns = []int{1, fleet - 1}
					}
					if !slices.Equal(runs, wantRuns) {
						t.Errorf("%s: Aggregate emitted runs %v, want %v", name, runs, wantRuns)
					}
					want.Vehicles = nil
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Aggregate differs from Run:\ngot:  %+v\nwant: %+v", name, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkStampedReplay is the replay layer on its own: a fleet of
// 100,000 on one Table I group with a full stamp (ErrorRate 0), so the
// first vehicle executes and every other is one run, folded as one count
// and listed through AppendRun. It reports time and allocations per
// vehicle.
func BenchmarkStampedReplay(b *testing.B) {
	const fleet = 100000
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := engine.Config{
				Fleet:   fleet,
				Workers: workers,
				Groups: []engine.ScenarioGroup{{
					Name:      "table-i",
					Scenarios: attack.Scenarios(),
					Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
					RootSeed:  42,
				}},
				TrafficHorizon: 10 * time.Millisecond,
				Harness:        h,
				SkipMAC:        true,
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * fleet
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/vehicle")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/vehicle")
		})
	}
}

// TestStampedAggregateAllocsFlat pins the stamped path's O(1) cost in
// process: a fully stamped Aggregate allocates as often at fleet 1,000,000
// as at fleet 2.
func TestStampedAggregateAllocsFlat(t *testing.T) {
	h, err := attack.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(fleet int) float64 {
		cfg := stampConfig(1, 0, 0)
		cfg.Fleet, cfg.Harness = fleet, h
		return testing.AllocsPerRun(5, func() {
			if _, err := engine.Aggregate(cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Executing vehicle 0 allocates up to a few dozen times more on some
	// calls than on others, at any fleet size, under the race detector
	// most. That slack is far below what any per-vehicle or per-chunk cost
	// adds over 1,000,000 vehicles.
	const slack = 100
	if small, large := allocs(2), allocs(1000000); math.Abs(large-small) > slack {
		t.Errorf("a stamped Aggregate allocated %v times at fleet 2 and %v times at fleet 1,000,000", small, large)
	}
}

// TestStampReadOnlyThroughConsumers shows no consumer writes through the
// stamp's shared slices: after the streaming merge, a wire round trip and
// the fleet report render, the first vehicle's attack section — the
// backing arrays every stamped vehicle points at — is unchanged.
func TestStampReadOnlyThroughConsumers(t *testing.T) {
	cfg := stampConfig(2, 0, 0)
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := &fr.Vehicles[0]
	groups := make([][]attack.RegimeSummary, len(first.Groups))
	for gi, g := range first.Groups {
		groups[gi] = append([]attack.RegimeSummary(nil), g...)
	}
	attacks := append([]attack.RegimeSummary(nil), first.Attacks...)

	fold, err := engine.NewMergeFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := range fr.Vehicles {
		fold.Add(fr.Vehicles[i])
		if err := w.WriteVehicle(&fr.Vehicles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteTrailer(wire.Trailer{Count: len(fr.Vehicles)}); err != nil {
		t.Fatal(err)
	}
	merged := fold.Finish()
	r := wire.NewReader(&buf)
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	_ = merged.String()
	_ = fr.String()

	if !reflect.DeepEqual(first.Groups, groups) || !reflect.DeepEqual(first.Attacks, attacks) {
		t.Errorf("stamp changed under its consumers:\ngroups:  %+v, want %+v\nattacks: %+v, want %+v",
			first.Groups, groups, first.Attacks, attacks)
	}
	if !reflect.DeepEqual(merged.Groups, fr.Groups) {
		t.Error("streaming merge differs from the engine's merge")
	}
}
