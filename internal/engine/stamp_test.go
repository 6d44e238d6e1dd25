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
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/shard/wire"
)

// vehicleLines returns the vehicle lines of a rendered fleet report.
func vehicleLines(fr *engine.FleetReport) []string {
	var out []string
	for _, line := range strings.Split(fr.String(), "\n") {
		if strings.HasPrefix(line, "  ") {
			out = append(out, line)
		}
	}
	return out
}

// TestVINMatchesFmt: every listed vehicle carries its own index, and its
// rendered line starts with the VIN and seed fmt derives from that index
// and the fleet root. One stamped run crosses 999,999 -> 1,000,000, where
// VINs grow from 10 to 11 bytes; it is listed through Run and through
// AppendRun over Aggregate's runs.
func TestVINMatchesFmt(t *testing.T) {
	cfg := stampConfig(2, 1000000-4, 0)
	root := cfg.Groups[0].RootSeed
	check := func(path string, fr *engine.FleetReport) {
		t.Helper()
		vs := fr.Vehicles
		if len(vs) != cfg.Fleet {
			t.Fatalf("%s listed %d vehicles, want %d", path, len(vs), cfg.Fleet)
		}
		lines := vehicleLines(fr)
		if len(lines) != len(vs) {
			t.Fatalf("%s rendered %d vehicle lines, want %d", path, len(lines), len(vs))
		}
		for i := range vs {
			if want := cfg.IndexOffset + i; vs[i].Index != want {
				t.Errorf("%s: vehicle %d carries index %d, want %d", path, i, vs[i].Index, want)
			}
			want := fmt.Sprintf("  VIN-%06d seed=%#016x ", cfg.IndexOffset+i, engine.VehicleSeed(root, cfg.IndexOffset+i))
			if !strings.HasPrefix(lines[i], want) {
				t.Errorf("%s: vehicle %d renders %q, want the prefix %q", path, i, lines[i], want)
			}
		}
	}
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Run", fr)

	var listed []engine.VehicleReport
	var runs []int
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	var werr error
	if _, err := engine.Aggregate(cfg, func(v *engine.VehicleReport, n int) {
		runs = append(runs, n)
		listed = engine.AppendRun(listed, v, n)
		werr = errors.Join(werr, w.WriteRun(v, n))
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, cfg.Fleet - 1}; !slices.Equal(runs, want) {
		t.Errorf("Aggregate emitted runs %v, want %v", runs, want)
	}
	check("Aggregate", &engine.FleetReport{RootSeed: root, Vehicles: listed})

	// shard.Run lists through AppendRun too, but its index space starts at
	// zero and a range's stream must carry that range's own vehicles: fed
	// the runs written above for its one range, it records them as
	// misplaced and lists none.
	if err := errors.Join(werr, w.WriteTrailer(wire.Trailer{Count: cfg.Fleet})); err != nil {
		t.Fatal(err)
	}
	whole := cfg
	whole.IndexOffset = 0
	sfr, err := shard.Run(shard.Config{Engine: whole, Shards: 1, Spawn: func(shard.Range) (shard.Stream, error) {
		return shard.NewWireStream(&buf, nil), nil
	}})
	if err == nil || !strings.Contains(err.Error(), "shard 0:9: stream carried vehicle 999996 where 0 was due") {
		t.Errorf("shard.Run took another range's vehicles: %v", err)
	}
	if len(sfr.Vehicles) != 0 {
		t.Errorf("shard.Run listed %d misplaced vehicles", len(sfr.Vehicles))
	}
}

// shortWriter takes n bytes, then fails every write with err.
type shortWriter struct {
	n   int
	err error
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRenderReturnsWriteError: Render returns the error of a writer that
// fails, whether the first write fails or one in the middle of the
// listing does, and renders the bytes String returns to one that does not.
func TestRenderReturnsWriteError(t *testing.T) {
	cfg := stampConfig(1, 0, 0)
	cfg.Fleet = 100
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := fr.String()
	for _, n := range []int{0, len(full) / 2, len(full) - 1} {
		want := errors.New("disk full")
		if err := fr.Render(&shortWriter{n: n, err: want}); !errors.Is(err, want) {
			t.Errorf("a writer failing after %d of %d bytes: Render = %v, want %v", n, len(full), err, want)
		}
	}
	var b bytes.Buffer
	if err := fr.Render(&b); err != nil || b.String() != full {
		t.Errorf("Render = %v and %d bytes, want nil and String's %d", err, b.Len(), len(full))
	}
}

// TestRenderFailedVehicles: a vehicle whose visit failed lists no regimes,
// though the fleet totals fold what it completed. A harness with no
// enforcer builds no stack, so Run drains every vehicle under its index
// alone, with no Groups; a persistent chaos plan leaves each vehicle's
// Groups partial and books it unrecoverable.
func TestRenderFailedVehicles(t *testing.T) {
	drained := stampConfig(2, 0, 0)
	drained.Fleet = 3
	drained.Harness = &attack.Harness{}
	partial := stampConfig(1, 0, 0)
	partial.Fleet = 3
	partial.Chaos = &chaos.Plan{Seed: 3, Panic: 0.3, Persist: 99}
	for name, cfg := range map[string]engine.Config{"drained": drained, "partial": partial} {
		fr, err := engine.Run(cfg)
		if err == nil {
			t.Fatalf("%s: the run did not fail", name)
		}
		lines := vehicleLines(fr)
		if len(lines) != cfg.Fleet {
			t.Fatalf("%s: rendered %d vehicle lines, want %d:\n%s", name, len(lines), cfg.Fleet, fr)
		}
		for i, line := range lines {
			want := fmt.Sprintf("  VIN-%06d seed=%#016x ", i, engine.VehicleSeed(cfg.Groups[0].RootSeed, i))
			if !strings.HasPrefix(line, want) || strings.Contains(line, "{") {
				t.Errorf("%s: vehicle %d renders %q, want the prefix %q and no regimes", name, i, line, want)
			}
		}
		if name == "partial" && fr.Attacks[0].Summary.Runs == 0 {
			t.Error("the partial vehicles folded no completed cells into the fleet totals")
		}
	}
}

// TestRepeatedRegimeFoldsOnce: a regime one group sweeps twice folds into
// one aggregate at its first appearance, in the fleet totals and on every
// vehicle line, as a regime several groups sweep does.
func TestRepeatedRegimeFoldsOnce(t *testing.T) {
	cfg := stampConfig(1, 0, 0)
	cfg.Fleet = 2
	cfg.Groups = cfg.Groups[:1]
	cfg.Groups[0].Regimes = []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE, attack.EnforceNone}
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := fr.Groups[0].Regimes
	if len(fr.Attacks) != 2 || fr.Attacks[0].Regime != attack.EnforceNone ||
		fr.Attacks[0].Summary.Runs != g[0].Summary.Runs+g[2].Summary.Runs {
		t.Errorf("fleet totals %+v do not fold the group's %+v by regime", fr.Attacks, g)
	}
	for _, line := range vehicleLines(fr) {
		if strings.Count(line, " none{") != 1 || strings.Count(line, " hpe{") != 1 {
			t.Errorf("vehicle line %q does not list each regime once", line)
		}
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
	return &a.Groups[0] == &b.Groups[0] && &a.Groups[0][0] == &b.Groups[0][0]
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
					got, err := engine.Aggregate(cfg, func(r *engine.VehicleReport, n int) {
						runs = append(runs, n)
						for i := range n {
							m := *r
							m.Index += i
							emitted = append(emitted, m)
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

// BenchmarkStampedReplay times the sweep's two fold paths on their own,
// each an engine.Run of one Table I group. stamped is a fleet of 100,000
// with a full stamp (ErrorRate 0): the first vehicle executes and every
// other is one run, folded as one count and listed through AppendRun.
// executed is a fleet of 200 with 2% bus errors on 2 workers: every later
// vehicle's live phase executes, and each vehicle folds as the ordered
// emitter releases it. Each reports time and allocations per vehicle.
func BenchmarkStampedReplay(b *testing.B) {
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name           string
		fleet, workers int
		errorRate      float64
	}{
		{"stamped", 100000, 1, 0},
		{"executed", 200, 2, 0.02},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := engine.Config{
				Fleet:   bc.fleet,
				Workers: bc.workers,
				Groups: []engine.ScenarioGroup{{
					Name:      "table-i",
					Scenarios: attack.Scenarios(),
					Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
					RootSeed:  42,
				}},
				TrafficHorizon: 10 * time.Millisecond,
				ErrorRate:      bc.errorRate,
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
			n := float64(b.N) * float64(bc.fleet)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/vehicle")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/vehicle")
		})
	}
}

// TestStampedAggregateAllocsFlat pins the stamped path's O(1) cost in
// process: a fully stamped Aggregate allocates as often at fleet 1,000,000
// as at fleet 2. It sweeps on one worker. With more, vehicle 0's matrix
// runs in parallel, and a helper that finds no unit left builds no arena,
// so one call can allocate ~190 times fewer than the next.
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
	// Identical calls allocate varying counts at any fleet size, and the
	// spread is the runtime's, not the sweep's: at fleet 2, 282 of 300
	// calls allocated 983 times and the rest 984–988, but with GOGC=off
	// 299 of 300 read 983. Pools that a GC cycle empties refill on the
	// next call. One is fmt's printer pool, which newShared's
	// core.DeriveMACModule draws on once per message type: alone, it read
	// 586 on 395 of 400 calls and 588 on the rest, and 586 on all 400 with
	// GOGC=off. Under -race, which drops sync.Pool items at random by
	// design, calls read 1,021–1,087. The slack covers that, and is far
	// below what any per-vehicle or per-chunk cost adds over 1,000,000
	// vehicles.
	const slack = 100
	if small, large := allocs(2), allocs(1000000); math.Abs(large-small) > slack {
		t.Errorf("a stamped Aggregate allocated %v times at fleet 2 and %v times at fleet 1,000,000", small, large)
	}
}

// TestStampReadOnlyThroughConsumers shows no consumer writes through the
// stamp's shared slices: after the streaming merge, a wire round trip and
// the fleet report render, the first vehicle's Groups — the backing arrays
// every stamped vehicle points at — are unchanged.
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

	if !reflect.DeepEqual(first.Groups, groups) {
		t.Errorf("stamp changed under its consumers:\ngroups: %+v, want %+v", first.Groups, groups)
	}
	if !reflect.DeepEqual(merged.Groups, fr.Groups) {
		t.Error("streaming merge differs from the engine's merge")
	}
}
