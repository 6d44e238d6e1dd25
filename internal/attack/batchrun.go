package attack

import (
	"fmt"

	"repro/internal/car"
)

// This file implements prefix-checkpointed batched execution. A BatchRun
// walks a BatchPlan, or one (bucket, regime) unit of it, in bucket-major
// (bucket, regime, cell) order one cell at a time, so the fleet engine's
// sweep supervisor can wrap every cell in panic recovery, bounded retry and
// demotion, and can spread a plan's units over several arenas. For every
// bucket of scenarios sharing a prefix it replays the prefix once per
// regime, checkpoints the quiescent vehicle, and forks each cell from the
// checkpoint instead of paying a full reset + regime provisioning + setup
// replay; singleton buckets run the plain per-cell path. Per-regime aggregates folded from a
// drained cursor equal RunMatrix's on the same scenarios and regimes: each
// forked cell produces the same Result as a cold run (restore equals reset),
// and Summary.Add is commutative, so the bucket-major order cannot show.
//
// Each restore is guarded by a cheap integrity checksum of the arena's
// externally observable state — a corrupted checkpoint surfaces as a typed
// ErrIntegrity before the forked cell runs, instead of silently poisoning
// every remaining cell of the bucket.

// BatchRun is a resumable cursor over a BatchPlan's cells on one arena: the
// whole plan (NewBatchRun) or one unit of it (Seek). Next advances the
// cursor, Run executes the current cell through the batched
// (checkpoint-forking) machinery, and RunOracle executes the same cell
// through the cell-by-cell reference path — the supervisor's retry and
// demotion target. Like the arena it drives, a BatchRun is single-owner.
type BatchRun struct {
	a *Arena
	p *BatchPlan

	bi, ri, ci int  // bucket, regime, cell-in-bucket position
	end        int  // the unit the walk stops before
	started    bool // Next called at least once
	primed     bool // a valid checkpoint exists for (bi, ri)
	corrupt    bool // sabotage the next restore (chaos testing hook)
	sum        uint64
}

// NewBatchRun positions a fresh cursor before the plan's first cell, to
// walk every unit of the plan in turn.
func (a *Arena) NewBatchRun(p *BatchPlan) *BatchRun {
	return &BatchRun{a: a, p: p, end: p.Units()}
}

// Seek scopes the cursor to unit u of plan p (0 <= u < p.Units()): Next
// moves to the unit's first cell and reports false after its last. The
// checkpoint of whatever the cursor walked before is dropped, so one cursor
// serves any sequence of units of any plans without allocating.
func (b *BatchRun) Seek(p *BatchPlan, u int) {
	*b = BatchRun{a: b.a, p: p, bi: u / len(p.Regimes), ri: u % len(p.Regimes), end: u + 1}
}

// Next advances to the next cell in bucket-major, regime-minor order and
// reports whether one exists in the cursor's scope. Crossing a regime or
// bucket boundary enters the next unit and invalidates the checkpoint, as
// each (bucket, regime) pair primes its own.
func (b *BatchRun) Next() bool {
	switch {
	case !b.started:
		b.started = true
	case b.ci+1 < len(b.p.buckets[b.bi]):
		b.ci++
		return true
	default:
		b.ci = 0
		b.primed = false
		if b.ri++; b.ri == len(b.p.Regimes) {
			b.ri, b.bi = 0, b.bi+1
		}
	}
	return b.bi*len(b.p.Regimes)+b.ri < b.end
}

// Cell returns the current cell's scenario index (into the plan's Scenarios)
// and regime index (into its Regimes).
func (b *BatchRun) Cell() (scenario, regime int) {
	return b.p.buckets[b.bi][b.ci], b.ri
}

// Forked reports whether the current cell belongs to a multi-scenario bucket
// (i.e. executes via checkpoint forking rather than a plain per-cell run).
func (b *BatchRun) Forked() bool { return len(b.p.buckets[b.bi]) > 1 }

// WillRestore reports whether the next Run of the current cell would rewind
// from an existing checkpoint (rather than prime a fresh one) — the only
// instant a restore-corruption fault can land.
func (b *BatchRun) WillRestore() bool { return b.Forked() && b.primed }

// Run executes the current cell through the batched path: singleton buckets
// run the plain per-cell path; multi buckets prime the (bucket, regime)
// checkpoint on first use and fork every cell from it, verifying the
// arena's integrity checksum after each restore.
func (b *BatchRun) Run() (Result, error) {
	bucket := b.p.buckets[b.bi]
	sc := b.p.Scenarios[bucket[b.ci]]
	enf := b.p.Regimes[b.ri]
	if len(bucket) == 1 {
		return b.a.Run(sc, enf)
	}
	if !b.primed {
		if err := b.a.resetForRegime(enf); err != nil {
			return Result{}, err
		}
		if err := b.a.h.runSetup(b.a.car, b.p.Scenarios[bucket[0]]); err != nil {
			return Result{}, err
		}
		if err := b.a.capture(&b.a.ckpt, enf); err != nil {
			return Result{}, err
		}
		b.sum = b.a.integritySum()
		b.primed = true
	} else {
		if err := b.a.restore(&b.a.ckpt, enf); err != nil {
			b.primed = false
			return Result{}, err
		}
		if b.corrupt {
			b.corrupt = false
			b.a.corruptState()
		}
		if got := b.a.integritySum(); got != b.sum {
			b.primed = false
			return Result{}, fmt.Errorf("%w (captured %#016x, restored %#016x)", ErrIntegrity, b.sum, got)
		}
	}
	return b.a.h.executeTail(b.a.car, sc, enf, &b.a.inj)
}

// RunOracle executes the current cell through the cell-by-cell reference
// path (full reset + regime provisioning + setup replay), bypassing the
// checkpoint machinery entirely. The checkpoint is invalidated — the oracle
// run dirties the arena — so a later batched cell re-primes from scratch.
func (b *BatchRun) RunOracle() (Result, error) {
	b.primed = false
	return b.a.Run(b.p.Scenarios[b.p.buckets[b.bi][b.ci]], b.p.Regimes[b.ri])
}

// Invalidate discards the current checkpoint: the next batched cell of this
// (bucket, regime) pair re-primes from a full reset. Supervisors call it
// after any failed cell, whose partial execution left the arena dirty.
func (b *BatchRun) Invalidate() { b.primed = false }

// Rebind points the cursor at a replacement arena (after the supervisor
// rebuilt a panicked worker's stack) without losing the plan position.
func (b *BatchRun) Rebind(a *Arena) {
	b.a = a
	b.primed = false
}

// CorruptNextRestore arms the chaos-testing sabotage hook: the next restore
// flips vehicle state after rewinding, so the integrity checksum must catch
// it and surface ErrIntegrity. A no-op until a restore actually happens.
func (b *BatchRun) CorruptNextRestore() { b.corrupt = true }

// foldSum is one SplitMix64 finalisation step, the stack's shared mixing
// primitive, folding v into h.
func foldSum(h, v uint64) uint64 {
	z := h + (v+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// integritySum hashes the arena's externally observable vehicle state: the
// scheduler clock and step count, the operating mode, every vehicle state
// field and the bus counters. It is deliberately a spot check, not a full
// state digest — cheap enough to run on every restore, wide enough that any
// single-field corruption of the checkpointed core state flips it. Engine
// and guard counters are not covered (DESIGN.md §11 records the coverage
// boundary); their corruption surfaces through the divergence the
// verification sampler catches instead.
func (a *Arena) integritySum() uint64 {
	c := a.car
	h := foldSum(0x9E3779B97F4A7C15, uint64(c.Scheduler().Now()))
	h = foldSum(h, c.Scheduler().Steps())
	for _, by := range []byte(c.Mode()) {
		h = foldSum(h, uint64(by))
	}
	st := c.State()
	var bits uint64
	for i, b := range []bool{
		st.Propulsion, st.EPSActive, st.EngineRunning, st.ModemEnabled,
		st.TrackingActive, st.DoorsLocked, st.AlarmArmed, st.FailSafeTriggered,
		st.FirmwareModified,
	} {
		if b {
			bits |= 1 << i
		}
	}
	h = foldSum(h, bits)
	h = foldSum(h, uint64(st.ActualSpeed)|uint64(st.DisplayedSpeed)<<16)
	h = foldSum(h, uint64(st.ExfilReports))
	bs := c.Bus().Stats()
	h = foldSum(h, bs.FramesDelivered)
	h = foldSum(h, bs.Errors)
	h = foldSum(h, bs.WriteBlocked|bs.ReadBlocked<<32)
	h = foldSum(h, bs.AbortedTx)
	return h
}

// corruptState flips the restored vehicle's operating mode — the smallest
// state corruption that changes policy decisions, and one integritySum is
// guaranteed to catch. Only the chaos layer reaches it, via
// CorruptNextRestore.
func (a *Arena) corruptState() {
	if a.car.Mode() == car.ModeNormal {
		a.car.SetMode(car.ModeFailSafe)
	} else {
		a.car.SetMode(car.ModeNormal)
	}
}
