package engine_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

func TestVINMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 7, 99999, 100000, 999999, 1000000, 9999999, 123456789} {
		if got, want := engine.VIN(i), fmt.Sprintf("VIN-%06d", i); got != want {
			t.Errorf("VIN(%d) = %q, want %q", i, got, want)
		}
	}
	// A stamped run's VINs are sliced out of one string per chunk. Put one
	// chunk across 999,999 -> 1,000,000, where VINs grow from 10 to 11
	// bytes (chunks start at local index 1: the first vehicle executes).
	cfg := stampConfig(2, 1000000-engine.ReplayChunk/2, 0)
	cfg.Fleet = engine.ReplayChunk + 2
	check := func(path string, v *engine.VehicleReport) {
		if want := engine.VIN(v.Index); v.VIN != want {
			t.Errorf("%s: vehicle %d carries VIN %q, want %q", path, v.Index, v.VIN, want)
		}
	}
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.Vehicles {
		check("Run", &fr.Vehicles[i])
	}
	cfg.OnVehicle = func(v *engine.VehicleReport) { check("Aggregate", v) }
	if _, err := engine.Aggregate(cfg); err != nil {
		t.Fatal(err)
	}
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

// TestReplayChunkBoundaries covers a fully stamped run's chunked claims at
// the chunk's edges: whatever the fleet size around the chunk constant C,
// the worker count and the shard offset, every report equals the
// one-worker run's, OnVehicle fires once per index in ascending order, and
// vehicles at the chunk boundaries equal their one-vehicle oracle.
func TestReplayChunkBoundaries(t *testing.T) {
	c := engine.ReplayChunk
	for _, offset := range []int{0, 37} {
		for _, fleet := range []int{1, c - 1, c, c + 1, 2*c + 3} {
			var want *engine.FleetReport
			for _, workers := range []int{1, 2, 3} {
				name := fmt.Sprintf("fleet=%d workers=%d offset=%d", fleet, workers, offset)
				cfg := stampConfig(workers, offset, 0)
				cfg.Fleet = fleet
				var emitted []int
				cfg.OnVehicle = func(v *engine.VehicleReport) { emitted = append(emitted, v.Index) }
				fr, err := engine.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, idx := range emitted {
					if idx != offset+i {
						t.Fatalf("%s: emit %d carried index %d, want %d", name, i, idx, offset+i)
					}
				}
				if len(emitted) != fleet {
					t.Fatalf("%s: OnVehicle fired %d times, want %d", name, len(emitted), fleet)
				}
				if want == nil {
					want = fr
					continue
				}
				if !reflect.DeepEqual(fr.Vehicles, want.Vehicles) || !reflect.DeepEqual(fr.Groups, want.Groups) {
					t.Errorf("%s: reports differ from the one-worker run", name)
				}
			}
			// Chunks start at local index 1: the first vehicle executes alone.
			for _, i := range slices.Compact([]int{c, c + 1, 2 * c, fleet - 1}) {
				if i < 1 || i >= fleet {
					continue
				}
				one := stampConfig(1, offset+i, 0)
				one.Fleet, one.NoBatch = 1, true
				oracle, err := engine.Run(one)
				if err != nil {
					t.Fatalf("fleet=%d offset=%d vehicle=%d: oracle: %v", fleet, offset, i, err)
				}
				if !reflect.DeepEqual(want.Vehicles[i], oracle.Vehicles[0]) {
					t.Errorf("fleet=%d offset=%d vehicle=%d: replayed report differs from its oracle re-execution:\nreplayed: %+v\noracle:   %+v",
						fleet, offset, i, want.Vehicles[i], oracle.Vehicles[0])
				}
			}
		}
	}
}

// TestAggregateMatchesRun: Aggregate is Run without the per-vehicle
// section on every path a sweep takes — a fully stamped run (folded as one
// count), stamped attack sections over executed live phases, and chaos,
// verify-sampled and NoBatch runs where every vehicle executes — and with
// OnVehicle set it emits each index once, in order, with the report Run
// returns for it.
func TestAggregateMatchesRun(t *testing.T) {
	c := engine.ReplayChunk
	for _, v := range []struct {
		name   string
		fleets []int
		edit   func(*engine.Config)
	}{
		{"stamped", []int{1, 2, c - 1, c, c + 1, 2*c + 3}, func(*engine.Config) {}},
		{"errors", []int{1, 2, c - 1, c, c + 1, 2*c + 3}, func(cfg *engine.Config) { cfg.ErrorRate = 0.02 }},
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
					cfg.OnVehicle = func(r *engine.VehicleReport) { emitted = append(emitted, *r) }
					got, err := engine.Aggregate(cfg)
					if err != nil {
						t.Fatalf("%s: Aggregate: %v", name, err)
					}
					if !reflect.DeepEqual(emitted, want.Vehicles) {
						t.Errorf("%s: Aggregate emitted other vehicles than Run returns", name)
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
// first vehicle executes and every other is replayed into its report slot
// and merged. It reports time and allocations per vehicle.
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
