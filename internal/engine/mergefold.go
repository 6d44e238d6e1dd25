package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/attack"
)

// MergeFold folds vehicle reports into the fleet aggregates one at a time,
// in arrival order, so a streaming consumer (shard.Run decoding child
// pipes) never holds more than the vehicles it has chosen to retain.
// Run's own merge is this fold applied to its report slice — same
// statement order per vehicle, same float summation order — so a stream
// folded in index order finishes byte-identical to the unsharded run.
//
// A stretch of vehicles known to be equal but for Index, VIN and Seed —
// a stamped range — folds as one count (foldRun): the integer fields,
// Health and the matrix are scaled by the count, and the utilisation is
// added count times in index order, so the float sum stays bit-identical.
//
// A run of consecutive vehicles whose Groups is the same slice — the
// run-level stamp's, or the one matrix a shard stream's back-references
// decode to — folds its matrix once: the first vehicle merges it on
// arrival, the repeats merge it as one integer product at the next break
// or in Finish. Every attack.Summary field is an integer, so the product
// equals the repeated sum exactly. The bus counters, Health and the
// utilisation sum still fold per vehicle, in index order. The fold relies
// on VehicleReport.Groups being read-only and checks it: a run copies its
// matrix when its second vehicle arrives and panics at the flush if the
// shared slice's content has changed since.
//
// Not safe for concurrent use: the shard driver serialises Adds behind
// its in-range-order merge loop, exactly as the batch fold serialises its
// slice walk.
type MergeFold struct {
	cfg     Config
	fr      *FleetReport
	utilSum float64
	// folded counts the vehicles folded; the mean utilisation divides by it.
	folded int
	// run is the Groups slice of the last vehicle folded. reps counts the
	// vehicles after it that carried the same slice, not merged yet, and
	// snap is run's content when the first of them arrived.
	run  [][]attack.RegimeSummary
	reps int
	snap [][]attack.RegimeSummary
}

// NewMergeFold starts an incremental fleet merge. cfg must describe the
// whole fleet (total Fleet, the unsharded Workers value, zero
// IndexOffset); the same defaults Run applies are applied here so the
// report header matches. The vehicle slice is sized for the whole fleet
// up front, so Add never regrows it.
func NewMergeFold(cfg Config) (*MergeFold, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	m := newMergeFold(cfg)
	m.fr.Vehicles = make([]VehicleReport, 0, cfg.Fleet)
	return m, nil
}

// newMergeFold builds the fold over an already-defaulted config.
func newMergeFold(cfg Config) *MergeFold {
	fr := &FleetReport{
		Fleet:    cfg.Fleet,
		Workers:  cfg.Workers,
		RootSeed: cfg.Groups[0].RootSeed,
		Groups:   make([]GroupReport, len(cfg.Groups)),
	}
	for gi := range cfg.Groups {
		g := &cfg.Groups[gi]
		fr.Groups[gi].Name = g.Name
		fr.Groups[gi].RootSeed = g.RootSeed
		fr.Groups[gi].Regimes = make([]attack.RegimeSummary, len(g.Regimes))
		for ri, enf := range g.Regimes {
			fr.Groups[gi].Regimes[ri].Regime = enf
		}
	}
	fr.HealthEnabled = cfg.Chaos.Active() || cfg.VerifySample > 0
	return &MergeFold{cfg: cfg, fr: fr}
}

// Add folds one vehicle report into the fleet aggregates and retains it
// in the report's vehicle slice. Call in vehicle-index order for
// byte-identity with the unsharded run (float summation order).
func (m *MergeFold) Add(v VehicleReport) {
	m.fold(&v)
	m.fr.Vehicles = append(m.fr.Vehicles, v)
}

// fold accumulates one vehicle's counters — the exact per-vehicle
// statement order of the original batch merge, which is what pins the
// float summation order byte-identity rests on.
func (m *MergeFold) fold(v *VehicleReport) { m.foldRun(v, 1) }

// foldRun folds n >= 0 consecutive vehicles whose reports equal v but for
// Index, VIN and Seed, exactly as folding each in turn would: every field
// but the utilisation is an integer, so its product equals the repeated
// sum, wraparound included, and the utilisation is added n times in
// index order.
func (m *MergeFold) foldRun(v *VehicleReport, n int) {
	if n == 0 {
		return
	}
	fr := m.fr
	fr.Health.MergeScaled(v.Health, n)
	fr.FramesDelivered += v.FramesDelivered * uint64(n)
	fr.BusErrors += v.BusErrors * uint64(n)
	fr.WriteBlocked += v.WriteBlocked * uint64(n)
	fr.ReadBlocked += v.ReadBlocked * uint64(n)
	fr.AbortedTx += v.AbortedTx * uint64(n)
	fr.MACChecks += v.MACChecks * n
	fr.MACAllowed += v.MACAllowed * n
	for range n {
		m.utilSum += v.Utilisation
	}
	m.folded += n
	if len(v.Groups) > 0 && len(v.Groups) == len(m.run) && &v.Groups[0] == &m.run[0] {
		if m.reps == 0 {
			m.snap = make([][]attack.RegimeSummary, len(v.Groups))
			for gi, g := range v.Groups {
				m.snap[gi] = slices.Clone(g)
			}
		}
		m.reps += n
		return
	}
	m.flush()
	m.run = v.Groups
	for gi := range v.Groups {
		for ri := range v.Groups[gi] {
			fr.Groups[gi].Regimes[ri].Summary.MergeScaled(v.Groups[gi][ri].Summary, n)
		}
	}
}

// flush merges the pending repeats, after checking that the matrix they
// share still holds what it held when the first of them arrived.
func (m *MergeFold) flush() {
	if m.reps == 0 {
		return
	}
	if !slices.EqualFunc(m.run, m.snap, slices.Equal[[]attack.RegimeSummary]) {
		panic(fmt.Sprintf("engine: MergeFold: the Groups matrix %d consecutive vehicles share changed while they were folded; VehicleReport.Groups is read-only", m.reps+1))
	}
	for gi := range m.run {
		for ri := range m.run[gi] {
			m.fr.Groups[gi].Regimes[ri].Summary.MergeScaled(m.run[gi][ri].Summary, m.reps)
		}
	}
	m.reps = 0
}

// Finish closes the fold and returns the fleet report. The MergeFold must
// not be used afterwards.
func (m *MergeFold) Finish() *FleetReport { return m.finish() }

func (m *MergeFold) finish() *FleetReport {
	m.flush()
	fr := m.fr
	groupRegimes := make([][]attack.RegimeSummary, len(fr.Groups))
	for gi := range fr.Groups {
		groupRegimes[gi] = fr.Groups[gi].Regimes
	}
	fr.Attacks = foldGroups(groupRegimes)
	if m.folded > 0 {
		fr.MeanUtilisation = m.utilSum / float64(m.folded)
	}
	return fr
}

// orderedEmit sequences Config.OnVehicle callbacks: workers complete
// vehicles out of order, the emitter releases them strictly by index.
// Vehicles are claimed off an atomic cursor, so completion order tracks
// index order closely and the pending window stays near the worker count —
// up to workers × replayChunk on a fully stamped run, whose workers
// complete a chunk at a time.
type orderedEmit struct {
	mu      sync.Mutex
	fn      func(*VehicleReport)
	reports []VehicleReport
	done    []bool
	next    int
}

func newOrderedEmit(fn func(*VehicleReport), reports []VehicleReport) *orderedEmit {
	return &orderedEmit{fn: fn, reports: reports, done: make([]bool, len(reports))}
}

// complete marks slots [lo, hi) finished and emits every report that is
// now contiguous from the emission cursor. Callbacks run under the lock —
// never concurrently, always in ascending index order.
func (e *orderedEmit) complete(lo, hi int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := lo; i < hi; i++ {
		e.done[i] = true
	}
	for e.next < len(e.done) && e.done[e.next] {
		e.fn(&e.reports[e.next])
		e.next++
	}
}
