package attack

import "fmt"

// This file implements the fleet-facing side of the harness: one vehicle's
// full Table I scenario matrix, swept across enforcement regimes, reduced to
// aggregate success/blocked rates that the fleet engine (internal/engine)
// merges across a vehicle population.

// Summary reduces a set of Results to aggregate rates.
type Summary struct {
	// Runs counts scenario executions.
	Runs int
	// Succeeded counts runs where the attack achieved its effect.
	Succeeded int
	// Blocked counts runs where the attack was stopped AND the functional
	// probe still passed (the paper's success criterion for the defence).
	Blocked int
	// FalsePositives counts runs where enforcement broke legitimate traffic.
	FalsePositives int
	// Injected totals malicious frames attempted.
	Injected int
	// WriteBlocked and ReadBlocked total frames stopped at write/read filters.
	WriteBlocked uint64
	// ReadBlocked totals frames stopped at victims' read filters.
	ReadBlocked uint64
	// StageRuns totals campaign stages executed across runs (0 when the
	// swept scenarios are single-stage). Not part of String, so legacy
	// fleet-report renderings stay byte-stable.
	StageRuns int
	// StagesHalted counts runs where a stage predicate stopped a campaign
	// scenario early (the defence broke the kill chain).
	StagesHalted int
}

// Add folds one result into the summary.
func (s *Summary) Add(r Result) {
	s.Runs++
	s.Injected += r.Injected
	s.WriteBlocked += r.WriteBlocked
	s.ReadBlocked += r.ReadBlocked
	s.StageRuns += r.StagesRun
	if r.Halted {
		s.StagesHalted++
	}
	switch {
	case r.Succeeded:
		s.Succeeded++
	case r.LegitimateOK:
		s.Blocked++
	default:
		s.FalsePositives++
	}
}

// Merge folds another summary into this one (used fleet-wide).
func (s *Summary) Merge(o Summary) {
	s.Runs += o.Runs
	s.Succeeded += o.Succeeded
	s.Blocked += o.Blocked
	s.FalsePositives += o.FalsePositives
	s.Injected += o.Injected
	s.WriteBlocked += o.WriteBlocked
	s.ReadBlocked += o.ReadBlocked
	s.StageRuns += o.StageRuns
	s.StagesHalted += o.StagesHalted
}

// MergeScaled folds n copies of o into the summary: Merge(o) applied n
// times, for n >= 0. Every field is an integer, so the product equals the
// repeated sum exactly, wraparound included.
func (s *Summary) MergeScaled(o Summary, n int) {
	s.Runs += o.Runs * n
	s.Succeeded += o.Succeeded * n
	s.Blocked += o.Blocked * n
	s.FalsePositives += o.FalsePositives * n
	s.Injected += o.Injected * n
	s.WriteBlocked += o.WriteBlocked * uint64(n)
	s.ReadBlocked += o.ReadBlocked * uint64(n)
	s.StageRuns += o.StageRuns * n
	s.StagesHalted += o.StagesHalted * n
}

// SuccessRate returns attacks succeeded over runs (0 for no runs).
func (s Summary) SuccessRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Succeeded) / float64(s.Runs)
}

// BlockRate returns clean blocks over runs (0 for no runs).
func (s Summary) BlockRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(s.Runs)
}

// String renders the aggregate in one line.
func (s Summary) String() string {
	return fmt.Sprintf("runs=%d succeeded=%d blocked=%d falsepos=%d injected=%d wblk=%d rblk=%d",
		s.Runs, s.Succeeded, s.Blocked, s.FalsePositives, s.Injected, s.WriteBlocked, s.ReadBlocked)
}

// Verbose renders the aggregate in one line including the stage counters
// String omits. The String prefix is reused verbatim, so verbose renderings
// stay aligned with legacy ones column-for-column up to the stage fields.
func (s Summary) Verbose() string {
	return s.String() + fmt.Sprintf(" stages=%d halted=%d", s.StageRuns, s.StagesHalted)
}

// Summarize reduces results to a Summary.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		s.Add(r)
	}
	return s
}

// RegimeSummary pairs an enforcement regime with its aggregate outcome.
type RegimeSummary struct {
	// Regime is the enforcement configuration summarised.
	Regime Enforcement
	// Summary holds the aggregate rates for that regime.
	Summary Summary
}

// Matrix is the outcome of one vehicle's scenario x regime sweep. Regime
// summaries are kept in the sweep's regime order (never a map), so rendering
// a Matrix is deterministic and fleet merges stay byte-stable.
type Matrix struct {
	// Results holds every run in scenario-major, regime-minor order.
	Results []Result
	// Regimes holds one aggregate per regime, in sweep order.
	Regimes []RegimeSummary
}

// Summary returns the whole-matrix aggregate across all regimes.
func (m Matrix) Summary() Summary {
	var s Summary
	for _, rs := range m.Regimes {
		s.Merge(rs.Summary)
	}
	return s
}

// RunMatrix executes every scenario under every requested regime and returns
// per-regime aggregates alongside the raw results.
func (h *Harness) RunMatrix(scenarios []Scenario, regimes ...Enforcement) (Matrix, error) {
	return runMatrix(scenarios, regimes, h.Run)
}

// runMatrix is the shared matrix sweep: scenario-major, regime-minor, with
// per-regime aggregation in sweep order. Both the fresh-car path
// (Harness.RunMatrix) and the pooled path (Arena.RunMatrix) delegate here,
// so result ordering can never diverge between them.
func runMatrix(scenarios []Scenario, regimes []Enforcement, run func(Scenario, Enforcement) (Result, error)) (Matrix, error) {
	m := Matrix{
		Results: make([]Result, 0, len(scenarios)*len(regimes)),
		Regimes: make([]RegimeSummary, len(regimes)),
	}
	for i, enf := range regimes {
		m.Regimes[i].Regime = enf
	}
	for _, sc := range scenarios {
		for i, enf := range regimes {
			r, err := run(sc, enf)
			if err != nil {
				return Matrix{}, err
			}
			m.Results = append(m.Results, r)
			m.Regimes[i].Summary.Add(r)
		}
	}
	return m, nil
}
