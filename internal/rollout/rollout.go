// Package rollout is the OTA policy-update driver: the long-running
// OEM-side loop the paper's §V-A.2 update story implies but never
// operationalises. It takes a fleet's current policy set and a candidate
// set, computes their semantic diff, advances the candidate through the
// staged fleet.Rollout canary cohorts, and gates every cohort on measured
// campaign evidence — a (sharded) sweep of a cohort-sized simulated fleet
// enforcing the candidate policy, whose risk.Calibrate residual risk must
// not regress versus the same sweep under the current policy — rolling the
// whole fleet back to the prior set automatically when a gate vetoes or a
// stage crosses the abort threshold.
//
// Rollback under version monotonicity: devices refuse downgrades, so the
// rollback is the prior set re-issued at candidate.Version+1 — semantically
// the old policy, versionally a fresh update — exactly how a fielded OEM
// must retreat without breaking replay protection.
//
// Determinism: the transcript (diff, stage cohorts, residual evidence,
// verdict) is a pure function of (sets, vehicles, plan, gate spec, seeds).
// Wall-clock telemetry — continuous vehicles/s and decisions/s lines from
// the gate sweeps — goes to the separate Telemetry writer, never into the
// Outcome. See DESIGN.md §13.
package rollout

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/risk"
)

// Config parameterises one rollout run.
type Config struct {
	// OEM signs the candidate bundle and, on abort, the rollback re-issue.
	OEM *core.OEM
	// Current is the set the fleet runs today; Candidate the proposed one.
	// Candidate.Version must exceed Current.Version (store monotonicity).
	Current, Candidate *policy.Set
	// Vehicles are the update endpoints, driven through fleet.Rollout.
	Vehicles []fleet.Vehicle
	// Plan stages the rollout (zero value: fleet.DefaultPlan()).
	Plan fleet.Plan
	// GateSpec is the risk spec whose synthesized campaign supplies the
	// per-stage gate evidence. Nil disables evidence gating (stages advance
	// on the abort threshold alone).
	GateSpec *risk.Spec
	// Backend names the policy backend gate sweeps enforce with.
	Backend string
	// Workers bounds each gate sweep's worker pool.
	Workers int
	// Shards partitions each gate sweep's fleet index space (<=1 unsharded);
	// the evidence is byte-identical across shard counts.
	Shards int
	// RootSeed feeds gate sweeps when the spec leaves its own unset.
	RootSeed uint64
	// Tolerance is the relative residual-risk regression a gate accepts:
	// candidate residual above baseline*(1+Tolerance) vetoes the stage.
	// Zero means any measurable regression vetoes.
	Tolerance float64
	// Telemetry, when non-nil, receives continuous wall-clock telemetry
	// lines (vehicles/s, decisions/s per gate sweep). Deterministic output
	// never goes here; wall-clock output never goes anywhere else.
	Telemetry io.Writer
}

// StageEvidence records one gated stage's measured verdict.
type StageEvidence struct {
	// Stage indexes the plan stage the evidence gated.
	Stage int
	// Cohort is the gate sweep's fleet size (the stage's attempted count).
	Cohort int
	// BaselineResidual and CandidateResidual are the summed per-threat
	// residual-risk masses of the cohort sweep under the current and the
	// candidate policy.
	BaselineResidual, CandidateResidual float64
	// Regressed reports whether the candidate breached the tolerance.
	Regressed bool
}

// Outcome is the full transcript of one rollout run.
type Outcome struct {
	// CurrentVersion and CandidateVersion echo the sets.
	CurrentVersion, CandidateVersion uint64
	// Diff is the semantic difference the candidate would introduce.
	Diff policy.Diff
	// Report is the staged distribution outcome.
	Report fleet.Report
	// Evidence holds one entry per gated stage, in stage order.
	Evidence []StageEvidence
	// RolledBack reports whether the driver retreated to the prior set;
	// RollbackVersion is the re-issued version and RollbackReport the
	// distribution that restored it.
	RolledBack      bool
	RollbackVersion uint64
	RollbackReport  fleet.Report
}

// Advanced reports whether the candidate reached the whole fleet.
func (o *Outcome) Advanced() bool { return !o.Report.Aborted }

// String renders the deterministic transcript.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rollout: v%d -> v%d\n", o.CurrentVersion, o.CandidateVersion)
	if o.Diff.Empty() {
		b.WriteString("diff: no semantic change\n")
	} else {
		b.WriteString("diff:\n")
		lines := strings.Split(strings.TrimRight(o.Diff.String(), "\n"), "\n")
		// A blanket rule diffs as one line per (subject, mode, id); cap the
		// transcript at a readable prefix. The count line keeps the render a
		// faithful (and still deterministic) summary of the full Diff.
		const maxDiffLines = 24
		shown := lines
		if len(lines) > maxDiffLines {
			shown = lines[:maxDiffLines]
		}
		for _, line := range shown {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		if len(lines) > maxDiffLines {
			fmt.Fprintf(&b, "  ... (%d more changed cells)\n", len(lines)-maxDiffLines)
		}
	}
	b.WriteString(o.Report.String())
	for _, ev := range o.Evidence {
		verdict := "ok"
		if ev.Regressed {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(&b, "gate stage %d: cohort=%d residual baseline=%.4f candidate=%.4f %s\n",
			ev.Stage, ev.Cohort, ev.BaselineResidual, ev.CandidateResidual, verdict)
	}
	if o.RolledBack {
		fmt.Fprintf(&b, "ROLLED BACK to prior set as v%d\n", o.RollbackVersion)
		b.WriteString(o.RollbackReport.String())
	} else if o.Advanced() {
		fmt.Fprintf(&b, "advanced: fleet now runs v%d\n", o.CandidateVersion)
	}
	return b.String()
}

// residualGate measures cohort-sized gate sweeps lazily: per distinct cohort
// size, one sweep under the current set and one under the candidate, both
// from the same spec and seeds, residuals compared under the tolerance.
type residualGate struct {
	cfg      *Config
	baseH    *attack.Harness
	candH    *attack.Harness
	outcome  *Outcome
	byCohort map[int]StageEvidence
}

func newResidualGate(cfg *Config, outcome *Outcome) (*residualGate, error) {
	baseH, err := attack.NewHarnessFromSet(cfg.Current, cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("rollout: current-set harness: %w", err)
	}
	candH, err := attack.NewHarnessFromSet(cfg.Candidate, cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("rollout: candidate-set harness: %w", err)
	}
	return &residualGate{
		cfg: cfg, baseH: baseH, candH: candH,
		outcome: outcome, byCohort: map[int]StageEvidence{},
	}, nil
}

// residual sweeps a cohort-sized fleet enforcing with h and returns the
// profile's summed residual-risk mass, emitting one telemetry line.
func (g *residualGate) residual(label string, cohort int, h *attack.Harness) (float64, error) {
	spec := *g.cfg.GateSpec
	spec.Fleet = cohort // cohort sizing wins over the spec's own pin
	start := time.Now()
	out, err := risk.Run(&spec, campaign.SweepConfig{
		Fleet:    cohort,
		Workers:  g.cfg.Workers,
		RootSeed: g.cfg.RootSeed,
		Harness:  h,
		Shards:   g.cfg.Shards,
	})
	if err != nil {
		return 0, fmt.Errorf("gate sweep (%s, cohort %d): %w", label, cohort, err)
	}
	elapsed := time.Since(start).Seconds()
	total := 0.0
	for _, tc := range out.Profile.Threats {
		total += tc.Residual
	}
	if g.cfg.Telemetry != nil && elapsed > 0 {
		// One decision per swept cell: a scenario x regime x vehicle verdict.
		fmt.Fprintf(g.cfg.Telemetry, "telemetry: gate=%s cohort=%d vehicles/s=%.0f decisions/s=%.0f\n",
			label, cohort, float64(cohort)/elapsed, float64(out.Report.Cells)/elapsed)
	}
	return total, nil
}

// check is the fleet.Plan.Gate hook: measure the stage's cohort, veto on
// residual regression. Distinct stages with equal cohort sizes reuse the
// measured pair — the sweeps are pure functions of (spec, seeds, cohort).
func (g *residualGate) check(sr fleet.StageReport) error {
	ev, ok := g.byCohort[sr.Attempted]
	if !ok {
		base, err := g.residual("baseline", sr.Attempted, g.baseH)
		if err != nil {
			return err
		}
		cand, err := g.residual("candidate", sr.Attempted, g.candH)
		if err != nil {
			return err
		}
		ev = StageEvidence{
			Cohort:            sr.Attempted,
			BaselineResidual:  base,
			CandidateResidual: cand,
			Regressed:         cand > base*(1+g.cfg.Tolerance),
		}
		g.byCohort[sr.Attempted] = ev
	}
	ev.Stage = sr.Stage
	g.outcome.Evidence = append(g.outcome.Evidence, ev)
	if ev.Regressed {
		return fmt.Errorf("residual risk regressed at cohort %d: baseline %.4f, candidate %.4f",
			ev.Cohort, ev.BaselineResidual, ev.CandidateResidual)
	}
	return nil
}

// Run drives one full OTA update: diff, staged rollout with per-stage
// evidence gates, and automatic rollback on abort. The returned Outcome is
// complete even when the candidate was rolled back; err is reserved for
// failures of the driver itself (bad config, unsignable sets, a gate sweep
// that could not run — surfaced through the rollout report's gate veto).
func Run(cfg Config) (*Outcome, error) {
	if cfg.OEM == nil {
		return nil, errors.New("rollout: nil OEM")
	}
	if cfg.Current == nil || cfg.Candidate == nil {
		return nil, errors.New("rollout: nil current or candidate set")
	}
	if cfg.Candidate.Version <= cfg.Current.Version {
		return nil, fmt.Errorf("rollout: candidate version %d does not advance current %d",
			cfg.Candidate.Version, cfg.Current.Version)
	}
	if len(cfg.Vehicles) == 0 {
		return nil, errors.New("rollout: no vehicles")
	}
	plan := cfg.Plan
	if len(plan.Stages) == 0 {
		plan = fleet.DefaultPlan()
	}

	diff, err := policy.DiffSets(cfg.Current, cfg.Candidate, policy.DiffOptions{})
	if err != nil {
		return nil, fmt.Errorf("rollout: diffing sets: %w", err)
	}
	outcome := &Outcome{
		CurrentVersion:   cfg.Current.Version,
		CandidateVersion: cfg.Candidate.Version,
		Diff:             diff,
	}

	if cfg.GateSpec != nil {
		gate, err := newResidualGate(&cfg, outcome)
		if err != nil {
			return nil, err
		}
		plan.Gate = gate.check
	}

	bundle, err := cfg.OEM.Issue(cfg.Candidate)
	if err != nil {
		return nil, fmt.Errorf("rollout: issuing candidate: %w", err)
	}
	report, err := fleet.Rollout(cfg.Vehicles, bundle, plan)
	if err != nil {
		return nil, err
	}
	outcome.Report = report
	if !report.Aborted {
		return outcome, nil
	}

	// Abort (threshold or gate veto): retreat. Version monotonicity forbids
	// downgrades, so the prior set is re-issued one past the candidate —
	// vehicles that already took the candidate move forward to the old
	// semantics, vehicles that never saw it apply the same bundle, and the
	// idempotent re-apply path keeps both converged. The rollback plan is a
	// single ungated full-fleet stage: retreating is not canaried.
	prior := *cfg.Current
	prior.Version = cfg.Candidate.Version + 1
	rbBundle, err := cfg.OEM.Issue(&prior)
	if err != nil {
		return outcome, fmt.Errorf("rollout: issuing rollback: %w", err)
	}
	rbPlan := fleet.Plan{Stages: []float64{1.0}, AbortThreshold: 0.99, Workers: plan.Workers}
	rbReport, err := fleet.Rollout(cfg.Vehicles, rbBundle, rbPlan)
	if err != nil {
		return outcome, fmt.Errorf("rollout: rollback distribution: %w", err)
	}
	outcome.RolledBack = true
	outcome.RollbackVersion = prior.Version
	outcome.RollbackReport = rbReport
	return outcome, nil
}
