package engine

import (
	"encoding/binary"
	"math"
	"math/big"
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
// the same vehicles (the same exact utilisation sum, group folds and
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
// merged on its own, and the mean utilisation the exact rational mean,
// rounded once to the nearest float64.
func naiveFold(cfg Config, vehicles []VehicleReport) *FleetReport {
	fr := newMergeFold(cfg).fr
	utilSum := new(big.Rat)
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
		utilSum.Add(utilSum, new(big.Rat).SetFloat64(v.Utilisation))
		mergeGroups(fr, v.Groups)
	}
	regimes := make([][]attack.RegimeSummary, len(fr.Groups))
	for gi := range fr.Groups {
		regimes[gi] = fr.Groups[gi].Regimes
	}
	fr.Attacks = foldGroups(nil, regimes)
	if len(vehicles) > 0 {
		fr.MeanUtilisation, _ = utilSum.Quo(utilSum, big.NewRat(int64(len(vehicles)), 1)).Float64()
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
// and a partial Groups (a visit that failed in its second group). With
// raw set, eight more bytes a vehicle give its utilisation's float64 bits;
// a vehicle whose bits are not finite is skipped.
func foldVehicles(data []byte, raw bool) []VehicleReport {
	stamped, other := foldMatrix(1), foldMatrix(math.MaxInt/3)
	size := 2
	if raw {
		size += 8
	}
	vs := make([]VehicleReport, 0, min(len(data)/size, 512))
	for i := 0; i+size <= len(data) && len(vs) < 512; i += size {
		x := data[i+1]
		v := VehicleReport{
			Index: len(vs), FramesDelivered: uint64(x) * 40, BusErrors: uint64(x % 3),
			WriteBlocked: uint64(x % 5), ReadBlocked: uint64(x % 7), AbortedTx: uint64(x % 2),
			Utilisation: float64(x) * 0.0137, SchedulerSteps: uint64(x), MACChecks: int(x % 4), MACAllowed: int(x % 3),
			Health: Health{Retries: int(x % 3), Backoff: time.Duration(x) * time.Millisecond, VerifySamples: int(x % 2)},
		}
		if raw {
			v.Utilisation = math.Float64frombits(binary.LittleEndian.Uint64(data[i+2:]))
			if math.IsNaN(v.Utilisation) || math.IsInf(v.Utilisation, 0) {
				continue
			}
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
// vehicles that are equal but for Index collapsed into one count fold —
// the shape of a stamped range.
func countFold(cfg Config, vehicles []VehicleReport) *FleetReport {
	anon := func(v VehicleReport) VehicleReport {
		v.Index = 0
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

// at returns key's byte k, the key read cyclically; 0 for an empty key.
func at(key []byte, k int) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[k%len(key)])
}

// shuffle returns 0 … n-1 permuted by key (a Fisher–Yates shuffle whose
// draws are key bytes).
func shuffle(n int, key []byte) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := at(key, i) % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FuzzMergeFoldRuns checks the fold against the exact reference on
// arbitrary sequences of shared, cloned, different, nil and partial
// matrices with varying counters, and, in the raw arm, arbitrary finite
// utilisations (subnormals and the largest float64 included): the
// index-order fold, the count fold of every stretch of equal vehicles, a
// fold of a key-chosen permutation, and key-chosen sub-folds joined by
// Combine in a key-chosen order must each equal it exactly,
// MeanUtilisation bits included.
func FuzzMergeFoldRuns(f *testing.F) {
	seq := func(kinds ...byte) []byte {
		var b []byte
		for i, k := range kinds {
			b = append(b, k, byte(31*i+7))
		}
		return b
	}
	raw := func(us ...float64) []byte {
		var b []byte
		for i, u := range us {
			b = binary.LittleEndian.AppendUint64(append(b, byte(i), byte(31*i+7)), math.Float64bits(u))
		}
		return b
	}
	// The key deals the vehicles into four sub-folds, one left empty.
	key := []byte{7, 200, 3, 91, 18, 255, 42}
	f.Add(seq(slices.Repeat([]byte{0}, 64)...), key, false)                // stamped
	f.Add(seq(0, 0, 2, 2, 0, 3, 4, 1, 0, 0, 2, 3, 3, 0, 4, 4), key, false) // heterogeneous
	f.Add(seq(slices.Repeat([]byte{1}, 32)...), []byte{}, false)           // all distinct
	// Repeated identical pairs: stretches of equal vehicles to collapse.
	f.Add(slices.Concat(
		slices.Repeat([]byte{0, 9}, 40), slices.Repeat([]byte{1, 9}, 3), slices.Repeat([]byte{2, 200}, 17),
		[]byte{3, 1, 3, 1}, slices.Repeat([]byte{4, 5}, 6), []byte{0, 8}, slices.Repeat([]byte{0, 9}, 5)), key, false)
	// The utilisation's extremes: subnormals, zero, one and the largest
	// finite float64, whose sum spans the fold's whole width.
	f.Add(raw(math.SmallestNonzeroFloat64, 0, 1, math.MaxFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.3, math.Copysign(0, -1), 1), key, true)
	f.Add(raw(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1), []byte{1, 2, 3}, true)
	f.Fuzz(func(t *testing.T, data, key []byte, raw bool) {
		vehicles := foldVehicles(data, raw)
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
			t.Fatalf("index-order fold differs from the exact fold:\ngot:  %+v\nwant: %+v", got, want)
		}
		if got := countFold(cfg, vehicles); !reflect.DeepEqual(got, want) {
			t.Fatalf("count fold differs from the exact fold:\ngot:  %+v\nwant: %+v", got, want)
		}
		perm := shuffle(len(vehicles), key)
		permuted := newMergeFold(cfg)
		for _, i := range perm {
			permuted.Add(vehicles[i])
		}
		if got := permuted.Finish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("fold of permutation %v differs from the exact fold:\ngot:  %+v\nwant: %+v", perm, got, want)
		}
		// Deal the permuted vehicles into up to four sub-folds by the key,
		// then join them in an order the key picks too.
		parts := make([]*MergeFold, 1+len(key)%4)
		for i := range parts {
			parts[i] = newMergeFold(cfg)
		}
		for k, i := range perm {
			parts[at(key, k)/7%len(parts)].Add(vehicles[i])
		}
		order := shuffle(len(parts), key[len(key)/2:])
		joined := parts[order[0]]
		for _, i := range order[1:] {
			joined.Combine(parts[i])
		}
		if got := joined.Finish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sub-folds joined in order %v differ from the exact fold:\ngot:  %+v\nwant: %+v", order, got, want)
		}
	})
}

// TestMergeFoldExactAtBound: the utilisation sum spans the widest range
// the fold admits — the largest finite float64 times a count just below
// 2^63, plus the smallest subnormal — without rounding, and Finish rounds
// the exact mean once.
func TestMergeFoldExactAtBound(t *testing.T) {
	cfg := foldConfig(1)
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	huge := VehicleReport{Utilisation: math.MaxFloat64}
	tiny := VehicleReport{Utilisation: math.SmallestNonzeroFloat64}
	m := newMergeFold(cfg)
	m.Add(tiny)
	m.FoldRun(&huge, math.MaxInt64-1)
	want := new(big.Rat).SetFloat64(math.MaxFloat64)
	want.Mul(want, big.NewRat(math.MaxInt64-1, 1))
	want.Add(want, new(big.Rat).SetFloat64(math.SmallestNonzeroFloat64))
	if got, _ := m.sum.Rat(nil); got.Cmp(want) != 0 {
		t.Fatalf("utilisation sum rounded: %s, want %s", m.sum.Text('g', 20), want.FloatString(0))
	}
	mean, _ := want.Quo(want, big.NewRat(math.MaxInt64, 1)).Float64()
	if got := m.Finish().MeanUtilisation; got != mean {
		t.Errorf("MeanUtilisation = %v, want %v", got, mean)
	}
}

// TestFoldRunAllocatesNothing: a warm fold allocates nothing per run or
// vehicle — the exact sum adds into a spare it keeps and swaps, never into
// a fresh operand.
func TestFoldRunAllocatesNothing(t *testing.T) {
	cfg := foldConfig(1)
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	m := newMergeFold(cfg)
	v := VehicleReport{Groups: foldMatrix(1), FramesDelivered: 40, Utilisation: 0.5267, Health: Health{Retries: 1}}
	m.FoldRun(&v, 3)
	m.Add(v)
	if n := testing.AllocsPerRun(100, func() {
		m.FoldRun(&v, 99999)
		m.Add(v)
	}); n != 0 {
		t.Errorf("warm FoldRun and Add allocate %v times a call, want 0", n)
	}
}
