package engine

import (
	"math/big"
	"slices"
	"sync"

	"repro/internal/attack"
)

// MergeFold folds vehicle reports into the fleet aggregates and keeps
// none of them, so a streaming consumer (the shard driver decoding child
// pipes) holds only the vehicles it chooses to list. A sweep folds its own
// vehicles through it as they are released.
//
// The fold does not depend on order. Every aggregate but one is an integer
// sum, and the utilisation sum is exact: a 2,161-bit binary float holds
// any sum of finite float64 values, each times a count below 2^63 (1,074
// bits below the binary point, 1,024+63 above), so no addition rounds, and
// Finish rounds the mean once. Folding the same vehicles in any order, or
// in parts joined by Combine, finishes bit-identical.
//
// A run of vehicles known to be equal but for Index, VIN and Seed — a
// stamped range, or a run frame off the shard wire — folds as one count
// (FoldRun): every field, the utilisation included, is scaled by the
// count, which equals the repeated sum exactly. Add folds one vehicle, a
// run of one.
//
// Not safe for concurrent use: the shard driver gives each range a fold
// of its own, and a sweep folds behind its ordered emitter.
type MergeFold struct {
	fr *FleetReport
	// sum is the exact utilisation sum; FoldRun and Combine add into
	// spare and swap the two, since an in-place big.Float add allocates.
	sum, spare *big.Float
	u, k, prod big.Float // FoldRun's scratch operands
	// folded counts the vehicles folded; the mean utilisation divides by it.
	folded int
}

// utilPrec is the width of the exact utilisation sum, in bits.
const utilPrec = 1074 + 1024 + 63

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
		fr.Groups[gi].Regimes = make([]attack.RegimeSummary, len(g.Regimes))
		for ri, enf := range g.Regimes {
			fr.Groups[gi].Regimes[ri].Regime = enf
		}
	}
	fr.HealthEnabled = cfg.supervised()
	m := &MergeFold{fr: fr, sum: new(big.Float).SetPrec(utilPrec), spare: new(big.Float).SetPrec(utilPrec)}
	m.prod.SetPrec(utilPrec)
	return m
}

// Add folds one vehicle report into the fleet aggregates.
func (m *MergeFold) Add(v VehicleReport) { m.FoldRun(&v, 1) }

// FoldRun folds n >= 0 vehicles whose reports equal v but for Index, VIN
// and Seed, exactly as folding each in turn would: every field is scaled
// by n — the integers wrap around as the repeated sum does, and the
// utilisation's product is exact. v.Utilisation must be finite.
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
	m.u.SetFloat64(v.Utilisation)
	m.k.SetInt64(int64(n))
	m.addUtil(m.prod.Mul(&m.u, &m.k))
	m.folded += n
	for gi := range v.Groups {
		for ri := range v.Groups[gi] {
			fr.Groups[gi].Regimes[ri].Summary.MergeScaled(v.Groups[gi][ri].Summary, n)
		}
	}
}

// Combine folds o's vehicles into m, as if m had folded each of them. o
// must come from NewMergeFold over the same Config as m, and must not be
// used afterwards.
func (m *MergeFold) Combine(o *MergeFold) {
	fr, of := m.fr, o.fr
	fr.Health.Merge(of.Health)
	fr.FramesDelivered += of.FramesDelivered
	fr.BusErrors += of.BusErrors
	fr.WriteBlocked += of.WriteBlocked
	fr.ReadBlocked += of.ReadBlocked
	fr.AbortedTx += of.AbortedTx
	fr.MACChecks += of.MACChecks
	fr.MACAllowed += of.MACAllowed
	m.addUtil(o.sum)
	m.folded += o.folded
	for gi := range of.Groups {
		for ri := range of.Groups[gi].Regimes {
			fr.Groups[gi].Regimes[ri].Summary.Merge(of.Groups[gi].Regimes[ri].Summary)
		}
	}
}

// addUtil adds x to the utilisation sum, exactly.
func (m *MergeFold) addUtil(x *big.Float) {
	m.spare.Add(m.sum, x)
	m.sum, m.spare = m.spare, m.sum
}

// Finish closes the fold and returns the fleet report, its mean
// utilisation the exact mean rounded once to the nearest float64. The
// MergeFold must not be used afterwards.
func (m *MergeFold) Finish() *FleetReport {
	fr := m.fr
	groupRegimes := make([][]attack.RegimeSummary, len(fr.Groups))
	for gi := range fr.Groups {
		groupRegimes[gi] = fr.Groups[gi].Regimes
	}
	fr.Attacks = foldGroups(groupRegimes)
	if m.folded > 0 {
		mean, _ := m.sum.Rat(nil)
		fr.MeanUtilisation, _ = mean.Quo(mean, big.NewRat(int64(m.folded), 1)).Float64()
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
