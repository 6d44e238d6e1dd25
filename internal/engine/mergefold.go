package engine

import (
	"slices"
	"sync"

	"repro/internal/attack"
)

// MergeFold folds vehicle reports into the fleet aggregates in arrival
// order and keeps none of them, so a streaming consumer (the shard driver
// decoding child pipes) holds only the vehicles it chooses to list. A
// sweep folds its own vehicles through it as they are released, in index
// order — same statement order per vehicle, same float summation order —
// so a stream folded in index order finishes byte-identical to the
// unsharded run.
//
// A run of vehicles known to be equal but for Index, VIN and Seed — a
// stamped range, or a run frame off the shard wire — folds as one count
// (FoldRun): the integer fields, Health and the matrix are scaled by the
// count, and the utilisation is added count times in index order, so the
// float sum stays bit-identical. Every attack.Summary field is an integer,
// so the scaled matrix equals the repeated sum exactly. Add folds one
// vehicle, a run of one.
//
// Not safe for concurrent use: the shard driver serialises its folds
// behind its in-range-order merge loop, and a sweep behind its ordered
// emitter.
type MergeFold struct {
	fr      *FleetReport
	utilSum float64
	// folded counts the vehicles folded; the mean utilisation divides by it.
	folded int
}

// NewMergeFold starts an incremental fleet merge. cfg must describe the
// whole fleet (total Fleet, the unsharded Workers value, zero
// IndexOffset); the same defaults Run applies are applied here so the
// report header matches. The finished report's Vehicles is nil.
func NewMergeFold(cfg Config) (*MergeFold, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return newMergeFold(cfg), nil
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
	return &MergeFold{fr: fr}
}

// Add folds one vehicle report into the fleet aggregates. Call in
// vehicle-index order for byte-identity with the unsharded run (float
// summation order).
func (m *MergeFold) Add(v VehicleReport) { m.FoldRun(&v, 1) }

// FoldRun folds n >= 0 consecutive vehicles whose reports equal v but for
// Index, VIN and Seed, exactly as folding each in turn would: every field
// but the utilisation is an integer, so its product equals the repeated
// sum, wraparound included, and the utilisation is added n times in
// index order.
func (m *MergeFold) FoldRun(v *VehicleReport, n int) {
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
	for gi := range v.Groups {
		for ri := range v.Groups[gi] {
			fr.Groups[gi].Regimes[ri].Summary.MergeScaled(v.Groups[gi][ri].Summary, n)
		}
	}
}

// Finish closes the fold and returns the fleet report. The MergeFold must
// not be used afterwards.
func (m *MergeFold) Finish() *FleetReport {
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

// orderedEmit releases a sweep's executed vehicles strictly by index:
// workers complete them out of order, and each is released — folded and
// emitted as a run of one — once every lower index has been. A completed
// report is held only until its release; vehicles are claimed in index
// order, so the pending set stays near the worker count. errs collects the
// vehicles' errors in index order.
type orderedEmit struct {
	mu      sync.Mutex
	release func(*VehicleReport, int)
	next    int
	// pending holds the vehicles completed ahead of next, by index.
	pending []completed
	errs    []error
}

// completed is a vehicle's outcome waiting for its release.
type completed struct {
	index int
	rep   VehicleReport
	err   error
}

// complete records vehicle i's outcome and releases every vehicle that is
// now contiguous from the release cursor. Releases run under the lock —
// never concurrently, always in ascending index order.
func (e *orderedEmit) complete(i int, rep *VehicleReport, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i != e.next {
		k := 0
		for k < len(e.pending) && e.pending[k].index < i {
			k++
		}
		e.pending = slices.Insert(e.pending, k, completed{i, *rep, err})
		return
	}
	e.advance(rep, err)
	for len(e.pending) > 0 && e.pending[0].index == e.next {
		e.advance(&e.pending[0].rep, e.pending[0].err)
		e.pending = slices.Delete(e.pending, 0, 1)
	}
}

// advance releases the vehicle at the cursor and moves the cursor on.
func (e *orderedEmit) advance(rep *VehicleReport, err error) {
	e.release(rep, 1)
	if err != nil {
		e.errs = append(e.errs, err)
	}
	e.next++
}
