// Package fleet implements the distribution side of the paper's policy
// update mechanism (§V-A.2): an OEM pushing a signed policy bundle to a
// population of vehicles. Updates roll out in stages (canary first), the
// rollout aborts when a stage's failure rate crosses a threshold, and the
// report records the fate of every vehicle — the operational details the
// paper's "the OEM can distribute a policy definition update" glosses over.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/policy"
)

// Vehicle is one update endpoint. Callers adapt theirs through VehicleFunc:
// cmd/rollout wraps a policy store per simulated vehicle, and tests wrap
// real core.Device stacks or fakes.
type Vehicle interface {
	// ID returns the vehicle's stable identifier (e.g. VIN).
	ID() string
	// Apply verifies and installs the bundle.
	Apply(b *policy.Bundle) error
}

// VehicleFunc adapts a closure to Vehicle.
type VehicleFunc struct {
	// VID is the identifier returned by ID.
	VID string
	// Fn performs the installation.
	Fn func(b *policy.Bundle) error
}

// ID implements Vehicle.
func (v VehicleFunc) ID() string { return v.VID }

// Apply implements Vehicle.
func (v VehicleFunc) Apply(b *policy.Bundle) error { return v.Fn(b) }

var _ Vehicle = VehicleFunc{}

// Plan parameterises a staged rollout.
type Plan struct {
	// Stages are cumulative population fractions in (0, 1]; each stage
	// updates the vehicles between the previous cumulative fraction and
	// its own. A canary plan looks like {0.01, 0.1, 0.5, 1.0}.
	Stages []float64
	// AbortThreshold is the per-stage failure-rate ceiling in [0, 1); when
	// a stage's failure rate exceeds it, remaining stages are cancelled.
	AbortThreshold float64
	// Workers bounds the per-stage apply parallelism; 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial behaviour. Stages remain
	// sequential barriers (a stage's failure rate gates the next stage),
	// and the report is identical to a serial rollout whatever the worker
	// count: outcomes are folded in fleet order after each stage completes.
	Workers int
	// Gate, when non-nil, is consulted after each non-empty stage clears the
	// abort threshold: it receives the completed stage report and may veto
	// the remaining stages by returning an error (recorded verbatim in the
	// rollout report). OTA drivers hang measured-evidence gates here — e.g.
	// a canary-cohort sweep whose calibrated residual risk must not regress
	// before the next cohort is touched. A gate veto stops the rollout like
	// a threshold abort: already-updated vehicles keep the new policy.
	Gate func(StageReport) error
}

// DefaultPlan is a conservative canary rollout: 1%, 10%, 50%, 100%, abort
// when more than 5% of a stage fails.
func DefaultPlan() Plan {
	return Plan{Stages: []float64{0.01, 0.10, 0.50, 1.00}, AbortThreshold: 0.05}
}

// Plan validation errors.
var (
	ErrNoStages     = errors.New("fleet: plan has no stages")
	ErrStageRange   = errors.New("fleet: stage fractions must be increasing within (0, 1]")
	ErrLastStage    = errors.New("fleet: final stage must cover the whole fleet (1.0)")
	ErrBadThreshold = errors.New("fleet: abort threshold must be in [0, 1)")
)

// ErrDuplicateID rejects a fleet carrying two vehicles with the same ID. The
// rollout's determinism contract — stage membership and failure order are a
// pure function of the (ID-sorted) fleet — cannot hold when two endpoints
// are indistinguishable, so duplicates fail fast instead of silently racing.
var ErrDuplicateID = errors.New("fleet: duplicate vehicle ID")

// Validate checks plan well-formedness.
func (p Plan) Validate() error {
	if len(p.Stages) == 0 {
		return ErrNoStages
	}
	prev := 0.0
	for _, f := range p.Stages {
		if f <= prev || f > 1 {
			return fmt.Errorf("%w: got %v after %v", ErrStageRange, f, prev)
		}
		prev = f
	}
	if p.Stages[len(p.Stages)-1] != 1.0 {
		return ErrLastStage
	}
	if p.AbortThreshold < 0 || p.AbortThreshold >= 1 {
		return fmt.Errorf("%w: %v", ErrBadThreshold, p.AbortThreshold)
	}
	return nil
}

// Failure records one vehicle that rejected the update.
type Failure struct {
	// VehicleID identifies the endpoint.
	VehicleID string
	// Err is the rejection cause.
	Err error
}

// StageReport summarises one rollout stage.
type StageReport struct {
	// Stage is the index within the plan.
	Stage int
	// Fraction echoes the cumulative plan fraction.
	Fraction float64
	// Attempted, Applied and Failed count vehicles in this stage.
	Attempted, Applied, Failed int
	// Failures lists rejections (in fleet order).
	Failures []Failure
}

// FailureRate returns failures over attempts (0 for an empty stage).
func (s StageReport) FailureRate() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Failed) / float64(s.Attempted)
}

// Report is the outcome of a rollout.
type Report struct {
	// BundleVersion echoes the distributed bundle.
	BundleVersion uint64
	// Stages in execution order (only executed stages appear).
	Stages []StageReport
	// Aborted reports whether the abort threshold or a stage gate cancelled
	// later stages.
	Aborted bool
	// AbortedAtStage is the index of the failing stage when Aborted.
	AbortedAtStage int
	// GateVeto carries the Plan.Gate error message when a gate (rather than
	// the failure-rate threshold) stopped the rollout; empty otherwise.
	GateVeto string
	// Applied and Failed are fleet-wide totals.
	Applied, Failed int
}

// String renders a rollout summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rollout of policy v%d: applied=%d failed=%d", r.BundleVersion, r.Applied, r.Failed)
	if r.Aborted {
		fmt.Fprintf(&b, " ABORTED at stage %d", r.AbortedAtStage)
		if r.GateVeto != "" {
			fmt.Fprintf(&b, " (gate: %s)", r.GateVeto)
		}
	}
	b.WriteByte('\n')
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "  stage %d (%.0f%%): attempted=%d applied=%d failed=%d (rate %.1f%%)\n",
			s.Stage, s.Fraction*100, s.Attempted, s.Applied, s.Failed, s.FailureRate()*100)
	}
	return b.String()
}

// Rollout executes a staged distribution of bundle to the fleet. Vehicles
// are ordered by ID for determinism (a stable sort, and duplicate IDs are
// rejected outright — see ErrDuplicateID); each is attempted at most once.
// Within a stage, applies run with bounded parallelism (Plan.Workers) while
// the report keeps exact fleet order; stages stay sequential because each
// stage's failure rate gates the next. When a stage's failure rate exceeds
// the plan's threshold — or a Plan.Gate vetoes — the rollout stops before
// the next stage (already-updated vehicles keep the new policy; the store's
// version monotonicity makes re-running the rollout after a fix safe and
// idempotent).
func Rollout(fleetVehicles []Vehicle, bundle *policy.Bundle, plan Plan) (Report, error) {
	if err := plan.Validate(); err != nil {
		return Report{}, err
	}
	if bundle == nil {
		return Report{}, errors.New("fleet: nil bundle")
	}
	ordered := append([]Vehicle(nil), fleetVehicles...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ID() < ordered[j].ID() })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].ID() == ordered[i-1].ID() {
			return Report{}, fmt.Errorf("%w: %q", ErrDuplicateID, ordered[i].ID())
		}
	}

	report := Report{BundleVersion: bundle.Version}
	total := len(ordered)
	done := 0
	for idx, frac := range plan.Stages {
		// Integer rounding, not truncation: float artifacts like 0.7*10 ==
		// 6.999... must not shift a cohort boundary off the documented
		// fraction. Monotone in frac, so cohorts never overlap.
		upTo := int(math.Round(frac * float64(total)))
		if idx == len(plan.Stages)-1 {
			upTo = total // the final stage always covers the whole fleet
		}
		if upTo <= done {
			// Tiny fleets can make early stages empty; skip but record.
			report.Stages = append(report.Stages, StageReport{Stage: idx, Fraction: frac})
			continue
		}
		sr := StageReport{Stage: idx, Fraction: frac}
		stage := ordered[done:upTo]
		outcomes := applyStage(stage, bundle, plan.Workers)
		for i, v := range stage {
			sr.Attempted++
			if err := outcomes[i]; err != nil {
				sr.Failed++
				sr.Failures = append(sr.Failures, Failure{VehicleID: v.ID(), Err: err})
			} else {
				sr.Applied++
			}
		}
		done = upTo
		report.Stages = append(report.Stages, sr)
		report.Applied += sr.Applied
		report.Failed += sr.Failed
		if sr.FailureRate() > plan.AbortThreshold {
			report.Aborted = true
			report.AbortedAtStage = idx
			break
		}
		if plan.Gate != nil {
			if gerr := plan.Gate(sr); gerr != nil {
				report.Aborted = true
				report.AbortedAtStage = idx
				report.GateVeto = gerr.Error()
				break
			}
		}
	}
	return report, nil
}

// applyStage attempts the bundle on every vehicle of one stage with bounded
// parallelism and returns per-vehicle outcomes indexed like the input, so
// the caller can fold them in fleet order. Each vehicle is attempted exactly
// once and no two workers ever touch the same vehicle, which keeps
// single-owner simulations (engine-hosted vehicles) safe to update in
// parallel.
func applyStage(stage []Vehicle, bundle *policy.Bundle, workers int) []error {
	outcomes := make([]error, len(stage))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(stage) {
		workers = len(stage)
	}
	if workers <= 1 {
		for i, v := range stage {
			outcomes[i] = v.Apply(bundle)
		}
		return outcomes
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = stage[i].Apply(bundle)
			}
		}()
	}
	for i := range stage {
		next <- i
	}
	close(next)
	wg.Wait()
	return outcomes
}
