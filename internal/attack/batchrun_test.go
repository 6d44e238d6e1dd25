package attack

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/car"
)

// batchRunScenarios builds a plan shape with both singleton and forked
// buckets: the full checkpoint catalog plus a keyed shared-prefix family.
func batchRunScenarios(t *testing.T) []Scenario {
	t.Helper()
	scs := checkpointScenarios()
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
	for i, rep := range []int{1, 2, 3} {
		v := withSetup
		v.Name += " variant"
		v.Injections = append([]Injection(nil), withSetup.Injections...)
		for j := range v.Injections {
			v.Injections[j].Repeat = rep
			v.Injections[j].Gap = time.Duration(i+1) * stepTime
		}
		v.PrefixKey = 11
		scs = append(scs, v)
	}
	return scs
}

// drainBatchRun drives every cell of p through a fresh BatchRun cursor on a
// and folds the results into per-regime aggregates, the way the engine's
// supervised group loop does, requiring the cursor to visit every cell once.
func drainBatchRun(t *testing.T, a *Arena, p *BatchPlan) []RegimeSummary {
	t.Helper()
	out := make([]RegimeSummary, len(p.Regimes))
	for i, enf := range p.Regimes {
		out[i].Regime = enf
	}
	br := a.NewBatchRun(p)
	cells := 0
	for br.Next() {
		_, ri := br.Cell()
		r, err := br.Run()
		if err != nil {
			t.Fatalf("cell %d: %v", cells, err)
		}
		out[ri].Summary.Add(r)
		cells++
	}
	if cells != len(p.Scenarios)*len(p.Regimes) {
		t.Fatalf("cursor visited %d cells, want %d", cells, len(p.Scenarios)*len(p.Regimes))
	}
	return out
}

// TestBatchRunUnitsFoldLikeWholePlan: walking every unit of a plan on one
// cursor, each unit scoped by Seek, visits every cell once and folds the
// same per-regime aggregates as NewBatchRun's whole-plan walk. The cursor
// alternates between two plans, in reverse unit order for one of them, so
// no unit leans on the checkpoint or position the previous one left.
func TestBatchRunUnitsFoldLikeWholePlan(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	plans := []*BatchPlan{
		PlanBatches(batchRunScenarios(t), EnforceNone, EnforceHPE, EnforceBehaviour),
		PlanBatches(Scenarios()[:5], EnforceSoftware, EnforceHPE),
	}
	want := make([][]RegimeSummary, len(plans))
	got := make([][]RegimeSummary, len(plans))
	for i, p := range plans {
		want[i] = drainBatchRun(t, a, p)
		got[i] = make([]RegimeSummary, len(p.Regimes))
		for ri, enf := range p.Regimes {
			got[i][ri].Regime = enf
		}
	}
	cells := make([]int, len(plans))
	br := a.NewBatchRun(plans[0])
	for step := 0; step < max(plans[0].Units(), plans[1].Units()); step++ {
		for i, p := range plans {
			u := step
			if i == 1 {
				u = p.Units() - 1 - step
			}
			if u < 0 || u >= p.Units() {
				continue
			}
			br.Seek(p, u)
			for br.Next() {
				_, ri := br.Cell()
				if ri != p.UnitRegime(u) {
					t.Fatalf("plan %d unit %d: cell under regime %d, want %d", i, u, ri, p.UnitRegime(u))
				}
				r, err := br.Run()
				if err != nil {
					t.Fatalf("plan %d unit %d: %v", i, u, err)
				}
				got[i][ri].Summary.Add(r)
				cells[i]++
			}
		}
	}
	for i, p := range plans {
		if cells[i] != len(p.Scenarios)*len(p.Regimes) {
			t.Errorf("plan %d: the units visited %d cells, want %d", i, cells[i], len(p.Scenarios)*len(p.Regimes))
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("plan %d: unit walks folded\n%+v\nwant the whole-plan walk's\n%+v", i, got[i], want[i])
		}
	}
}

// TestBatchRunOracleMatchesBatched: RunOracle on any cell produces the same
// Result as the batched path for that cell, and a batched cell after an
// oracle run (which dirties the arena) still re-primes correctly.
func TestBatchRunOracleMatchesBatched(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	p := PlanBatches(batchRunScenarios(t), EnforceNone, EnforceHPE)
	br := a.NewBatchRun(p)
	i := 0
	for br.Next() {
		batched, err := br.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check every third cell inline, like the verify sampler does.
		if i%3 == 0 {
			oracle, err := br.RunOracle()
			if err != nil {
				t.Fatal(err)
			}
			if oracle != batched {
				sci, ri := br.Cell()
				t.Errorf("cell (scenario %d, regime %d): oracle %+v != batched %+v", sci, ri, oracle, batched)
			}
		}
		i++
	}
}

// TestBatchRunCorruptionDetectedAndRecovered: an armed restore corruption
// surfaces as ErrIntegrity on the forked cell, and a retry of the same cell
// (which re-primes the checkpoint from a full reset) produces the correct
// result — the exact recovery sequence the supervisor performs.
func TestBatchRunCorruptionDetectedAndRecovered(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	scs := batchRunScenarios(t)
	p := PlanBatches(scs, EnforceHPE)
	br := a.NewBatchRun(p)
	corrupted := 0
	got := map[int]Result{} // flat cell index -> result
	cell := 0
	for br.Next() {
		if br.WillRestore() && corrupted == 0 {
			br.CorruptNextRestore()
			r, err := br.Run()
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("corrupted restore: got (%+v, %v), want ErrIntegrity", r, err)
			}
			corrupted++
			br.Invalidate() // supervisor's refresh step
			// Retry the same cell: re-primes and must succeed.
		}
		r, err := br.Run()
		if err != nil {
			t.Fatalf("cell %d after recovery: %v", cell, err)
		}
		got[cell] = r
		cell++
	}
	if corrupted == 0 {
		t.Fatal("plan produced no forked restore to corrupt — test shape broken")
	}

	// The full pass, corruption and recovery included, must match a clean
	// oracle pass cell for cell.
	oracle, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	obr := oracle.NewBatchRun(p)
	cell = 0
	for obr.Next() {
		want, err := obr.RunOracle()
		if err != nil {
			t.Fatal(err)
		}
		if got[cell] != want {
			t.Errorf("cell %d diverged after corruption recovery: got %+v, want %+v", cell, got[cell], want)
		}
		cell++
	}
}

// TestIntegritySumCatchesModeFlip: the spot-check checksum must flip when
// corruptState flips the operating mode — the corruption CorruptNextRestore
// injects.
func TestIntegritySumCatchesModeFlip(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	a.resetForRegime(EnforceNone)
	before := a.integritySum()
	a.corruptState()
	if after := a.integritySum(); after == before {
		t.Fatalf("integritySum unchanged by mode corruption (%#x)", before)
	}
	if a.car.Mode() != car.ModeFailSafe {
		t.Fatalf("corruptState left mode %v", a.car.Mode())
	}
}
