package engine

import (
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
)

// TestMergeFoldMatchesMerge pins the invariant the streaming shard merge
// rests on: folding Run's listing one vehicle at a time through Add
// renders byte-identically to the fold Run's sweep made as it released
// the same vehicles (same float summation order, same group folds, same
// health ledger), without the per-vehicle section MergeFold does not keep.
func TestMergeFoldMatchesMerge(t *testing.T) {
	cfg := quickConfig(7, 3)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 0.2, Corrupt: 0.1}
	fr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := NewMergeFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fr.Vehicles {
		fold.Add(v)
	}
	streamed := fold.Finish()
	if streamed.Vehicles != nil {
		t.Errorf("MergeFold kept %d vehicles, want none", len(streamed.Vehicles))
	}
	fr.Vehicles = nil
	if got, want := streamed.String(), fr.String(); got != want {
		t.Errorf("MergeFold diverged from the run's merge\n--- run\n%s\n--- fold\n%s", want, got)
	}
	if streamed.Health != fr.Health {
		t.Errorf("health ledger moved: %+v vs %+v", streamed.Health, fr.Health)
	}
}

// TestOnVehicleOrdered pins the streaming emitter's contract: with many
// workers completing vehicles out of order, OnVehicle fires exactly once
// per vehicle, strictly in ascending index order, never concurrently.
func TestOnVehicleOrdered(t *testing.T) {
	cfg := quickConfig(24, 8)
	var got []int
	var inFlight atomic.Int32
	cfg.OnVehicle = func(v *VehicleReport) {
		if inFlight.Add(1) != 1 {
			t.Error("OnVehicle callbacks ran concurrently")
		}
		got = append(got, v.Index)
		inFlight.Add(-1)
	}
	fr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.Fleet {
		t.Fatalf("OnVehicle fired %d times, want %d", len(got), cfg.Fleet)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emission order broken at position %d: got index %d (full order %v)", i, idx, got)
		}
	}
	// The emitted reports are the ones the fleet report retains.
	for i := range fr.Vehicles {
		if fr.Vehicles[i].Index != i {
			t.Fatalf("report slice out of order at %d", i)
		}
	}
}

// TestOnVehicleOffsetIndices: a sharded child emits global indices — the
// callback sees IndexOffset-shifted values, in order.
func TestOnVehicleOffsetIndices(t *testing.T) {
	cfg := quickConfig(5, 2)
	cfg.IndexOffset = 100
	var got []int
	cfg.OnVehicle = func(v *VehicleReport) { got = append(got, v.Index) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for i, idx := range got {
		if idx != 100+i {
			t.Fatalf("global index at position %d = %d, want %d", i, idx, 100+i)
		}
	}
	if len(got) != 5 {
		t.Fatalf("OnVehicle fired %d times, want 5", len(got))
	}
}

// TestOnVehicleFiresOnFailedRun: vehicles that complete before an
// unrecoverable fault still stream out — the partial-report contract the
// shard driver's quarantine path depends on.
func TestOnVehicleFiresOnFailedRun(t *testing.T) {
	cfg := quickConfig(6, 2)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 1, Persist: 99}
	var fired int
	last := -1
	cfg.OnVehicle = func(v *VehicleReport) {
		fired++
		if v.Index <= last {
			t.Errorf("emission order broken: %d after %d", v.Index, last)
		}
		last = v.Index
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("persistent chaos plan did not fail the run")
	}
	if fired != cfg.Fleet {
		t.Fatalf("OnVehicle fired %d times on a failed run, want %d (errored vehicles emit too)", fired, cfg.Fleet)
	}
}

// foldConfig is the two-group shape the fold tests fold into: group 0
// sweeps two regimes, group 1 three.
func foldConfig(fleet int) Config {
	all := attack.Scenarios()
	return Config{Fleet: fleet, Groups: []ScenarioGroup{
		{Name: "a", Scenarios: all[:1], Regimes: []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE}, RootSeed: 1},
		{Name: "b", Scenarios: all[1:2], Regimes: []attack.Enforcement{attack.EnforceHPE, attack.EnforceBehaviour, attack.EnforceNone}, RootSeed: 2},
	}}
}

// foldMatrix builds a foldConfig-shaped Groups matrix whose counters all
// derive from base, so two bases give two different matrices.
func foldMatrix(base int) [][]attack.RegimeSummary {
	cfg := foldConfig(1)
	m := make([][]attack.RegimeSummary, len(cfg.Groups))
	for gi, g := range cfg.Groups {
		for ri, enf := range g.Regimes {
			v := base + 10*gi + ri
			m[gi] = append(m[gi], attack.RegimeSummary{Regime: enf, Summary: attack.Summary{
				Runs: v, Succeeded: v / 2, Blocked: v / 3, FalsePositives: ri, Injected: 3 * v,
				WriteBlocked: uint64(v) * 5, ReadBlocked: uint64(v) * 7, StageRuns: v % 4, StagesHalted: gi,
			}})
		}
	}
	return m
}

// cloneMatrix deep-copies a Groups matrix: equal content, distinct slices.
func cloneMatrix(m [][]attack.RegimeSummary) [][]attack.RegimeSummary {
	c := make([][]attack.RegimeSummary, len(m))
	for gi := range m {
		c[gi] = slices.Clone(m[gi])
	}
	return c
}

// naiveFold is the reference the fold must equal: every vehicle's matrix
// merged on its own, in index order.
func naiveFold(cfg Config, vehicles []VehicleReport) *FleetReport {
	fr := newMergeFold(cfg).fr
	var utilSum float64
	for i := range vehicles {
		v := &vehicles[i]
		fr.Health.Merge(v.Health)
		fr.FramesDelivered += v.FramesDelivered
		fr.BusErrors += v.BusErrors
		fr.WriteBlocked += v.WriteBlocked
		fr.ReadBlocked += v.ReadBlocked
		fr.AbortedTx += v.AbortedTx
		fr.MACChecks += v.MACChecks
		fr.MACAllowed += v.MACAllowed
		utilSum += v.Utilisation
		mergeGroups(fr, v.Groups)
	}
	regimes := make([][]attack.RegimeSummary, len(fr.Groups))
	for gi := range fr.Groups {
		regimes[gi] = fr.Groups[gi].Regimes
	}
	fr.Attacks = foldGroups(regimes)
	if len(vehicles) > 0 {
		fr.MeanUtilisation = utilSum / float64(len(vehicles))
	}
	return fr
}

// mergeGroups merges one vehicle's matrix into fr's group totals.
func mergeGroups(fr *FleetReport, groups [][]attack.RegimeSummary) {
	for gi := range groups {
		for ri := range groups[gi] {
			fr.Groups[gi].Regimes[ri].Summary.Merge(groups[gi][ri].Summary)
		}
	}
}

// foldVehicles decodes fuzz bytes into a vehicle sequence, two bytes a
// vehicle: the first picks the matrix, the second varies the per-vehicle
// counters. The matrices are the shapes a fold meets: one shared (the
// stamp), equal content in a fresh clone (an executed vehicle), a second
// shared matrix whose counters wrap around when multiplied, nil Groups,
// and a partial Groups (a visit that failed in its second group).
func foldVehicles(data []byte) []VehicleReport {
	stamped, other := foldMatrix(1), foldMatrix(math.MaxInt/3)
	vs := make([]VehicleReport, 0, min(len(data)/2, 512))
	for i := 0; i+1 < len(data) && len(vs) < 512; i += 2 {
		x := data[i+1]
		v := VehicleReport{
			Index: len(vs), FramesDelivered: uint64(x) * 40, BusErrors: uint64(x % 3),
			WriteBlocked: uint64(x % 5), ReadBlocked: uint64(x % 7), AbortedTx: uint64(x % 2),
			Utilisation: float64(x) * 0.0137, SchedulerSteps: uint64(x), MACChecks: int(x % 4), MACAllowed: int(x % 3),
			Health: Health{Retries: int(x % 3), Backoff: time.Duration(x) * time.Millisecond, VerifySamples: int(x % 2)},
		}
		switch data[i] % 5 {
		case 0:
			v.Groups = stamped
		case 1:
			v.Groups = cloneMatrix(stamped)
		case 2:
			v.Groups = other
		case 3:
			// a vehicle whose visit failed before its first group
		case 4:
			v.Groups = [][]attack.RegimeSummary{slices.Clone(stamped[0]), nil}
		}
		vs = append(vs, v)
	}
	return vs
}

// countFold folds vehicles with every maximal stretch of consecutive
// vehicles that are equal but for Index, VIN and Seed collapsed into one
// count fold — the shape of a stamped range.
func countFold(cfg Config, vehicles []VehicleReport) *FleetReport {
	anon := func(v VehicleReport) VehicleReport {
		v.Index, v.VIN, v.Seed = 0, "", 0
		return v
	}
	m := newMergeFold(cfg)
	for i := 0; i < len(vehicles); {
		j := i + 1
		for j < len(vehicles) && reflect.DeepEqual(anon(vehicles[i]), anon(vehicles[j])) {
			j++
		}
		m.FoldRun(&vehicles[i], j-i)
		i = j
	}
	return m.Finish()
}

// FuzzMergeFoldRuns checks the fold against the per-vehicle reference on
// arbitrary sequences of shared, cloned, different, nil and partial
// matrices with varying counters: the streaming fold and the count fold
// of every stretch of equal vehicles must each equal it exactly,
// MeanUtilisation bits included.
func FuzzMergeFoldRuns(f *testing.F) {
	seq := func(kinds ...byte) []byte {
		var b []byte
		for i, k := range kinds {
			b = append(b, k, byte(31*i+7))
		}
		return b
	}
	f.Add(seq(slices.Repeat([]byte{0}, 64)...))                // stamped
	f.Add(seq(0, 0, 2, 2, 0, 3, 4, 1, 0, 0, 2, 3, 3, 0, 4, 4)) // heterogeneous
	f.Add(seq(slices.Repeat([]byte{1}, 32)...))                // all distinct
	// Repeated identical pairs: stretches of equal vehicles to collapse.
	f.Add(slices.Concat(
		slices.Repeat([]byte{0, 9}, 40), slices.Repeat([]byte{1, 9}, 3), slices.Repeat([]byte{2, 200}, 17),
		[]byte{3, 1, 3, 1}, slices.Repeat([]byte{4, 5}, 6), []byte{0, 8}, slices.Repeat([]byte{0, 9}, 5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		vehicles := foldVehicles(data)
		cfg := foldConfig(len(vehicles))
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		want := naiveFold(cfg, vehicles)
		fold, err := NewMergeFold(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vehicles {
			fold.Add(v)
		}
		if got := fold.Finish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeFold differs from the per-vehicle fold:\ngot:  %+v\nwant: %+v", got, want)
		}
		if got := countFold(cfg, vehicles); !reflect.DeepEqual(got, want) {
			t.Fatalf("count fold differs from the per-vehicle fold:\ngot:  %+v\nwant: %+v", got, want)
		}
	})
}
