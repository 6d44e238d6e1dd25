package engine

import (
	"fmt"
	"time"
)

// Health is the sweep supervisor's containment ledger: every quarantine,
// retry, demotion and verification event of a run, folded per vehicle and
// then fleet-wide. The ledger is deterministic — faults are injected (or
// occur) as a pure function of per-vehicle coordinates and the whole retry
// history of a vehicle is independent of which worker ran it — so the
// rendered section is byte-stable across worker counts and pooling modes,
// which is what lets CI diff the Health output of a seeded chaos run.
type Health struct {
	// Quarantines counts failed cell attempts converted into quarantine
	// records (the sum of the four failure classes below, minus crash
	// recoveries, which are vehicle-scope).
	Quarantines int
	// PanicRecoveries counts cell panics recovered by the supervisor.
	PanicRecoveries int
	// IntegrityFailures counts checkpoint restores whose arena checksum
	// diverged from the capture.
	IntegrityFailures int
	// DeadlineOverruns counts cells that exceeded the virtual-time budget
	// (or had an overrun injected).
	DeadlineOverruns int
	// NotQuiescent counts checkpoint captures refused because the arena was
	// not quiescent.
	NotQuiescent int
	// CrashRecoveries counts whole-vehicle visits recovered after a
	// simulated worker/shard crash.
	CrashRecoveries int
	// Retries counts re-attempts the supervisor scheduled (cell and vehicle
	// scope combined).
	Retries int
	// Backoff is the total virtual backoff the capped retry schedule
	// accumulated. Recorded, never slept: a deterministic sweep cannot wait
	// on wall clocks, but the schedule a production shard supervisor would
	// sleep is part of the evidence.
	Backoff time.Duration
	// CellDemotions counts cells demoted from the batched path to the
	// cell-by-cell oracle after exhausting batched retries.
	CellDemotions int
	// VehicleDemotions counts vehicles whose remaining cells were demoted
	// wholesale (monotone: a vehicle demotes at most once and never
	// returns to the batched path).
	VehicleDemotions int
	// VerifySamples counts batched cells cross-checked inline against the
	// oracle; VerifyMismatches counts the cross-checks that diverged.
	VerifySamples    int
	VerifyMismatches int
	// Unrecoverable counts cells (or vehicles) that kept failing through
	// every retry and the oracle demotion — the only failures that still
	// surface as a sweep error.
	Unrecoverable int
}

// Merge folds another ledger into h (commutative integer adds, so merge
// order is invisible — the same property the attack summaries rely on).
func (h *Health) Merge(o Health) { h.MergeScaled(o, 1) }

// MergeScaled folds n copies of o into h: Merge(o) applied n times, for
// n >= 0. Every field is an integer, so the product equals the repeated
// sum exactly, wraparound included.
func (h *Health) MergeScaled(o Health, n int) {
	h.Quarantines += o.Quarantines * n
	h.PanicRecoveries += o.PanicRecoveries * n
	h.IntegrityFailures += o.IntegrityFailures * n
	h.DeadlineOverruns += o.DeadlineOverruns * n
	h.NotQuiescent += o.NotQuiescent * n
	h.CrashRecoveries += o.CrashRecoveries * n
	h.Retries += o.Retries * n
	h.Backoff += o.Backoff * time.Duration(n)
	h.CellDemotions += o.CellDemotions * n
	h.VehicleDemotions += o.VehicleDemotions * n
	h.VerifySamples += o.VerifySamples * n
	h.VerifyMismatches += o.VerifyMismatches * n
	h.Unrecoverable += o.Unrecoverable * n
}

// IsZero reports whether nothing was contained — the no-fault fast path,
// which renders no Health section unless the supervisor was explicitly
// armed.
func (h Health) IsZero() bool { return h == Health{} }

// String renders the ledger as one deterministic line.
func (h Health) String() string {
	return fmt.Sprintf("quarantines=%d (panic=%d integrity=%d deadline=%d notquiescent=%d) crashes=%d retries=%d backoff=%s demoted-cells=%d demoted-vehicles=%d verified=%d mismatches=%d unrecoverable=%d",
		h.Quarantines, h.PanicRecoveries, h.IntegrityFailures, h.DeadlineOverruns, h.NotQuiescent,
		h.CrashRecoveries, h.Retries, h.Backoff, h.CellDemotions, h.VehicleDemotions,
		h.VerifySamples, h.VerifyMismatches, h.Unrecoverable)
}
