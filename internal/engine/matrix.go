package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/attack"
)

// This file spreads vehicle 0's cells over a stamping run's workers. The
// cells fall into the units of the groups' batch plans (one per group,
// bucket and regime). Each unit primes its own checkpoint, so units run on
// separate arenas in any order, and every Summary field is an integer sum,
// so per-unit slots merged in plan order give the bytes a one-worker walk
// folds.

// matrix is vehicle 0's cell matrix split into claimable units.
type matrix struct {
	sh     *shared
	index  int              // vehicle 0's global index
	units  []matrixUnit     // every group's units, in plan order
	sums   []attack.Summary // sums[k] folds the cells of units[k]
	next   atomic.Int64     // the next unit to claim
	failed atomic.Bool      // a unit failed: claim nothing more
}

// matrixUnit is unit u of group g's batch plan.
type matrixUnit struct{ g, u int }

// runFirst executes vehicle 0 of a stamping run on the caller's arena a.
// With one worker that is the supervised visit every executed vehicle
// gets. With more, min(Workers, units) goroutines share the cells: the
// caller on a, after vehicle 0's live phase and MAC probe, and helpers
// started before those, each on a cell arena of its own. Each cell is one
// attempt (cellExec.attempt: panic containment, the restore integrity
// check, the virtual-time watchdog), with no retries. If anything fails,
// the partial matrix is dropped and vehicle 0 runs the supervised visit on
// a rebuilt arena, which contains and books the failure exactly as a
// one-worker run does.
func (sh *shared) runFirst(a *arena, index int) (VehicleReport, error) {
	if sh.cfg.Workers < 2 {
		return sh.runVehicle(a, index)
	}
	if rep, ok := sh.visitParallel(a, index); ok {
		return rep, nil
	}
	if err := a.rebuild(sh); err != nil {
		return VehicleReport{Index: index}, err
	}
	return sh.runVehicle(a, index)
}

// visitParallel is one unsupervised attempt of vehicle 0's visit with its
// cells spread across goroutines. It reports false if any phase failed.
func (sh *shared) visitParallel(a *arena, index int) (VehicleReport, bool) {
	m := &matrix{sh: sh, index: index}
	for g, p := range sh.plans {
		for u := range p.Units() {
			m.units = append(m.units, matrixUnit{g, u})
		}
	}
	m.sums = make([]attack.Summary, len(m.units))

	// Helpers start first, so the cells overlap the live phase and the
	// probe. A helper builds its arena on its own goroutine, as the pool's
	// workers do, and only once it holds a unit: a small matrix may leave
	// it none.
	var wg sync.WaitGroup
	for range min(sh.cfg.Workers, len(m.units)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, ok := m.claim()
			if !ok {
				return
			}
			h, err := newCellArena(sh)
			if err != nil {
				m.failed.Store(true)
				return
			}
			m.work(h, k)
		}()
	}
	rep, err := sh.visitHead(a, index)
	if err != nil {
		m.failed.Store(true)
	} else if k, ok := m.claim(); ok {
		m.work(a, k)
	}
	wg.Wait()
	if m.failed.Load() {
		return rep, false
	}
	rep.Groups = make([][]attack.RegimeSummary, len(sh.cfg.Groups))
	for g := range rep.Groups {
		rep.Groups[g] = newRegimeSummaries(&sh.cfg.Groups[g])
	}
	for k, mu := range m.units {
		rep.Groups[mu.g][sh.plans[mu.g].UnitRegime(mu.u)].Summary.Merge(m.sums[k])
	}
	return rep, true
}

// claim takes the next unit, unless none is left or one has failed.
func (m *matrix) claim() (int, bool) {
	if m.failed.Load() {
		return 0, false
	}
	k := int(m.next.Add(1)) - 1
	return k, k < len(m.units)
}

// work runs the claimed unit k on a, then keeps claiming, all on a's one
// cursor, until no unit is left or one fails. A panic that escapes the
// per-cell containment fails the matrix instead of the process.
func (m *matrix) work(a *arena, k int) {
	defer func() {
		if recover() != nil {
			m.failed.Store(true)
		}
	}()
	var demoted bool // never set: one attempt per cell, no demotion
	e := cellExec{sup: &m.sh.sup, sh: m.sh, owner: a, br: a.cur, vehicle: m.index, demoted: &demoted}
	for ok := true; ok; k, ok = m.claim() {
		mu := m.units[k]
		e.group = mu.g
		if err := e.runUnit(&m.sh.cfg.Groups[mu.g], mu.u, &m.sums[k], false); err != nil {
			m.failed.Store(true)
			return
		}
	}
}
