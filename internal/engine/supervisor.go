package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
)

// This file implements the fault-tolerant sweep supervisor: every cell of a
// vehicle visit — and the visit itself — executes behind a containment
// ladder instead of aborting the fleet on first failure.
//
// The ladder, per cell: a failed attempt (panic, integrity mismatch,
// deadline overrun, quiescence violation, or an injected chaos fault) is
// quarantined and retried up to defaultMaxRetries times on the batched
// path, each retry on a rebuilt or re-primed arena with a capped virtual
// backoff recorded. Exhausting the batched retries demotes the cell — and,
// monotonically, the vehicle's remaining cells — to the cell-by-cell oracle
// on the same arena (BatchRun.RunOracle), which gets its own
// defaultMaxRetries budget. The NoBatch oracle runs every cell cell by cell
// on fresh stacks from the start, so it has nothing to demote and only
// retries.
// Only a cell that keeps failing through all of that is unrecoverable: the
// vehicle reports a partial result and the sweep returns an error alongside
// the partial fleet report. Per visit: a panic escaping cell scope (or an
// injected crash fault) abandons the visit, the worker rebuilds its arena,
// and the whole vehicle re-runs up to defaultMaxRetries times.
//
// Determinism: chaos faults are a pure function of per-vehicle coordinates,
// retries and demotions are decided by counters local to the vehicle, and
// the recorded backoff is virtual (never slept) — so the Health ledger, like
// the payload report, is byte-stable across worker counts and shard layouts.

// Supervisor failure classes. ErrCellPanic and ErrVehicleCrash wrap
// recovered panics at cell and visit scope; ErrCellDeadline reports a cell
// whose tail left the virtual clock past the budget; ErrUnrecoverable marks
// a cell that failed through every retry and demotion.
var (
	ErrCellPanic     = errors.New("engine: recovered cell panic")
	ErrVehicleCrash  = errors.New("engine: recovered vehicle-visit crash")
	ErrCellDeadline  = errors.New("engine: cell exceeded its virtual-time budget")
	ErrUnrecoverable = errors.New("engine: unrecoverable cell")
)

const (
	// defaultMaxRetries is the supervisor's retry budget per rung: a
	// failing cell gets this many batched retries, then (demoted) as many
	// oracle retries; a crashing vehicle visit gets as many re-runs.
	defaultMaxRetries = 2
	// cellTimeBudget is the virtual-clock watchdog: a cell that leaves the
	// simulated clock past it is quarantined as a deadline overrun. Virtual
	// time, not wall time — healthy cells finish in simulated milliseconds.
	cellTimeBudget = time.Minute

	backoffBase = time.Millisecond
	backoffCap  = 8 * time.Millisecond

	// saltVerify keys the verification sampler's rolls, disjoint from the
	// chaos plan's per-kind salts.
	saltVerify uint64 = 0x7e
)

// supervisorCfg is the resolved supervision configuration every worker
// shares.
type supervisorCfg struct {
	plan       *chaos.Plan
	verify     float64
	verifySeed uint64
}

// backoff returns the capped virtual backoff recorded before retry n
// (1-based): base<<(n-1), clamped to backoffCap.
func backoff(n int) time.Duration {
	if n > 4 {
		return backoffCap
	}
	d := backoffBase << uint(n-1)
	if d > backoffCap {
		return backoffCap
	}
	return d
}

// cellExec supervises one scenario group's cells for one vehicle: through
// br (owner's cursor) on the pooled batched path, through a fresh car per
// cell (the harness's Run) on the NoBatch oracle, where both are nil.
type cellExec struct {
	sup    *supervisorCfg
	health *Health
	sh     *shared
	owner  *arena           // pooled vehicle stack; nil on the oracle
	br     *attack.BatchRun // batched cursor over owner; nil on the oracle

	vehicle, group int
	demoted        *bool // the visit's monotone demotion latch
}

// runCell executes one cell through the containment ladder and returns its
// (possibly oracle-substituted) result, or ErrUnrecoverable once every rung
// is exhausted.
func (e *cellExec) runCell(sc attack.Scenario, sci, ri int, enf attack.Enforcement) (attack.Result, error) {
	maxAttempts := 2*defaultMaxRetries + 1
	for attempt := 0; ; attempt++ {
		r, err := e.attempt(sc, sci, ri, enf, attempt)
		if err == nil {
			return e.maybeVerify(r, sci, ri, attempt)
		}
		e.classify(err)
		if rerr := e.refresh(err); rerr != nil {
			return r, rerr
		}
		if attempt >= maxAttempts {
			e.health.Unrecoverable++
			return r, fmt.Errorf("%w: vehicle %d group %d scenario %d regime %s: %v",
				ErrUnrecoverable, e.vehicle, e.group, sci, enf, err)
		}
		if attempt == defaultMaxRetries && e.br != nil && !*e.demoted {
			// Batched retries exhausted: demote this cell — and the visit's
			// remaining cells — to the oracle. The latch never resets, so
			// demotion is monotone within the visit.
			e.health.CellDemotions++
			*e.demoted = true
			e.health.VehicleDemotions++
		}
		e.health.Retries++
		e.health.Backoff += backoff(attempt + 1)
	}
}

// oracle reports whether the given attempt runs on the cell-by-cell
// reference path instead of the batched one.
func (e *cellExec) oracle(attempt int) bool {
	return e.br == nil || *e.demoted || attempt > defaultMaxRetries
}

// attempt executes one try of one cell, converting panics into ErrCellPanic
// and injecting whatever the chaos plan dictates for this coordinate.
func (e *cellExec) attempt(sc attack.Scenario, sci, ri int, enf attack.Enforcement, attempt int) (r attack.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrCellPanic, p)
		}
	}()
	oracle := e.oracle(attempt)
	if k, ok := e.sup.plan.CellFault(e.vehicle, e.group, ri, sci, attempt); ok {
		switch k {
		case chaos.KindPanic:
			panic(&chaos.InjectedPanic{Vehicle: e.vehicle, Group: e.group, Regime: ri, Scenario: sci, Attempt: attempt})
		case chaos.KindDeadline:
			return attack.Result{}, chaos.ErrDeadline
		case chaos.KindCorrupt:
			// Corruption can only land on a checkpoint restore; elsewhere
			// the fault has nothing to corrupt and the attempt proceeds.
			if !oracle && e.br.WillRestore() {
				e.br.CorruptNextRestore()
			}
		}
	}
	switch {
	case !oracle:
		r, err = e.br.Run()
	case e.br != nil:
		r, err = e.br.RunOracle()
	default:
		r, err = e.sh.harness.Run(sc, enf)
	}
	if err != nil {
		return r, err
	}
	// Virtual-time watchdog (every pooled cell, where the cell's car is
	// reachable): a healthy cell leaves the clock in simulated
	// milliseconds, so a clock past the budget means a runaway tail.
	if e.owner != nil {
		if now := e.owner.att.Car().Scheduler().Now(); now > cellTimeBudget {
			return r, fmt.Errorf("%w: clock at %s after the cell (budget %s)", ErrCellDeadline, now, cellTimeBudget)
		}
	}
	return r, nil
}

// classify books one quarantined failure into the ledger.
func (e *cellExec) classify(err error) {
	e.health.Quarantines++
	switch {
	case errors.Is(err, ErrCellPanic):
		e.health.PanicRecoveries++
	case errors.Is(err, attack.ErrIntegrity):
		e.health.IntegrityFailures++
	case errors.Is(err, chaos.ErrDeadline), errors.Is(err, ErrCellDeadline):
		e.health.DeadlineOverruns++
	case errors.Is(err, attack.ErrNotQuiescent):
		e.health.NotQuiescent++
	}
}

// refresh prepares the backend for the next attempt. Any failure
// invalidates the batched checkpoint (the partial execution left the arena
// dirty); a panic or integrity mismatch additionally rebuilds the pooled
// attack arena outright — retrying on a stack whose invariants a panic may
// have torn is not containment, it is hope.
func (e *cellExec) refresh(err error) error {
	if e.br != nil {
		e.br.Invalidate()
	}
	if e.owner == nil || (!errors.Is(err, ErrCellPanic) && !errors.Is(err, attack.ErrIntegrity)) {
		return nil
	}
	att, aerr := e.sh.harness.NewArena()
	if aerr != nil {
		return aerr
	}
	e.owner.att = att
	if e.br != nil {
		e.br.Rebind(att)
	}
	return nil
}

// maybeVerify cross-checks a deterministic fraction of batched, forked
// cells against the oracle inline. A mismatch books itself, demotes the
// visit (monotone, like retry exhaustion) and substitutes the oracle's
// result — the reference path wins by definition.
func (e *cellExec) maybeVerify(r attack.Result, sci, ri, attempt int) (attack.Result, error) {
	if e.sup.verify <= 0 || e.br == nil || e.oracle(attempt) || !e.br.Forked() {
		return r, nil
	}
	if chaos.Roll(e.sup.verifySeed, saltVerify, e.vehicle, e.group, ri, sci) >= e.sup.verify {
		return r, nil
	}
	e.health.VerifySamples++
	or, err := e.br.RunOracle()
	if err != nil {
		return r, err
	}
	if or != r {
		e.health.VerifyMismatches++
		if !*e.demoted {
			*e.demoted = true
			e.health.VehicleDemotions++
		}
		return or, nil
	}
	return r, nil
}

// runGroupCells executes one group's cells under supervision and folds them
// into per-regime aggregates: unit by unit in plan order on the batched
// path, scenario-major cell by cell on the NoBatch oracle. Both fold
// byte-identical aggregates, because every cell's Result is the same either
// way and Summary.Add is commutative.
func runGroupCells(e *cellExec, g *ScenarioGroup) ([]attack.RegimeSummary, error) {
	out := newRegimeSummaries(g)
	if e.br != nil {
		p := e.sh.plans[e.group]
		for u := range p.Units() {
			if err := e.runUnit(g, u, &out[p.UnitRegime(u)].Summary, true); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	for sci := range g.Scenarios {
		for ri, enf := range g.Regimes {
			r, err := e.runCell(g.Scenarios[sci], sci, ri, enf)
			if err != nil {
				return out, err
			}
			out[ri].Summary.Add(r)
		}
	}
	return out, nil
}

// runUnit walks unit u of the group's plan on e's cursor and folds each
// cell's result into sum. A supervised walk runs every cell through the
// containment ladder (runCell). An unsupervised one, the parallel matrix's,
// makes one attempt per cell and returns the first failure without booking
// or retrying it: its caller drops the matrix and runs the supervised visit.
func (e *cellExec) runUnit(g *ScenarioGroup, u int, sum *attack.Summary, supervised bool) error {
	e.br.Seek(e.sh.plans[e.group], u)
	for e.br.Next() {
		sci, ri := e.br.Cell()
		var r attack.Result
		var err error
		if supervised {
			r, err = e.runCell(g.Scenarios[sci], sci, ri, g.Regimes[ri])
		} else {
			r, err = e.attempt(g.Scenarios[sci], sci, ri, g.Regimes[ri], 0)
		}
		if err != nil {
			return err
		}
		sum.Add(r)
	}
	return nil
}

// newRegimeSummaries returns the group's empty per-regime aggregates, in
// its sweep order.
func newRegimeSummaries(g *ScenarioGroup) []attack.RegimeSummary {
	out := make([]attack.RegimeSummary, len(g.Regimes))
	for i, enf := range g.Regimes {
		out[i].Regime = enf
	}
	return out
}

// superviseVisit runs one vehicle visit through the visit-scope ladder:
// a crash (recovered panic at visit scope, injected or real) rebuilds the
// worker's stack and re-runs the whole vehicle, up to defaultMaxRetries times.
// The Health ledger accumulates across visit attempts — a recovered crash's
// earlier quarantines are part of the vehicle's history, not noise.
func superviseVisit(visit func(attempt int, h *Health) (VehicleReport, error), rebuild func() error) (VehicleReport, error) {
	var h Health
	var rep VehicleReport
	var err error
	for attempt := 0; ; attempt++ {
		rep, err = visit(attempt, &h)
		if err == nil || !errors.Is(err, ErrVehicleCrash) || attempt >= defaultMaxRetries {
			break
		}
		h.CrashRecoveries++
		h.Retries++
		h.Backoff += backoff(attempt + 1)
		if rerr := rebuild(); rerr != nil {
			err = rerr
			break
		}
	}
	if err != nil && errors.Is(err, ErrVehicleCrash) {
		h.Unrecoverable++
	}
	rep.Health = h
	return rep, err
}
