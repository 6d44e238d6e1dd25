// Command rollout drives a staged OTA policy update against a simulated
// vehicle fleet: it derives (or loads) a candidate policy set, diffs it
// against the fleet's current set, advances it through canary cohorts with
// fleet.Rollout, gates every stage on measured campaign evidence — a
// sharded sweep of a cohort-sized fleet whose calibrated residual risk must
// not regress versus the current policy — and automatically rolls the fleet
// back to the prior set when a gate vetoes or a stage crosses the abort
// threshold.
//
// Exit codes: 0 the candidate reached the whole fleet, 2 the driver rolled
// back (the transcript carries the evidence), 1 the driver itself failed.
//
// Usage:
//
//	rollout -vehicles 40                  # clean advance drill (exit 0)
//	rollout -vehicles 40 -drill rollback  # flawed candidate, gate veto (exit 2)
//	rollout -vehicles 40 -apply-fail 0.5  # seeded canary apply failures (exit 2)
//	rollout -candidate next.policy -shards 4
//
// The deterministic transcript (diff, stages, residual evidence, verdict)
// prints on stdout; continuous wall-clock telemetry (vehicles/s,
// decisions/s per gate sweep) prints on stderr.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/car"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/policy/ir"
	"repro/internal/risk"
	"repro/internal/rollout"
	"repro/internal/threatmodel"
)

// saltApplyFail decorrelates seeded apply-failure rolls from every other
// consumer of the shared deterministic generator.
const saltApplyFail uint64 = 0xAF

func main() {
	vehicles := flag.Int("vehicles", 40, "simulated fleet size (provisioned policy stores)")
	candidateFile := flag.String("candidate", "", "candidate policy set (DSL file); default: generated per -drill")
	drill := flag.String("drill", "advance", "generated-candidate drill: advance (benign re-issue) or rollback (semantic hole the gate must catch)")
	applyFail := flag.Float64("apply-fail", 0, "seeded fraction of vehicles that reject the candidate bundle (deterministic per vehicle; drills the abort threshold)")
	seed := flag.Uint64("seed", 1, "root seed for gate sweeps and seeded apply failures")
	workers := flag.Int("workers", 0, "gate sweep worker pool (default GOMAXPROCS)")
	shards := flag.Int("shards", 0, "shard the gate sweeps' fleet index space (evidence is byte-identical across shard counts)")
	tolerance := flag.Float64("tolerance", 0, "relative residual-risk regression tolerated before a gate vetoes (0: any regression)")
	noGate := flag.Bool("no-gate", false, "disable evidence gating (stages advance on the abort threshold alone)")
	backend := flag.String("policy-backend", "", "policy backend for gate sweeps (default table)")
	flag.Parse()

	code, err := run(*vehicles, *candidateFile, *drill, *applyFail, *seed, *workers, *shards, *tolerance, *noGate, *backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rollout:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(vehicleCount int, candidateFile, drill string, applyFail float64, seed uint64, workers, shards int, tolerance float64, noGate bool, backend string) (int, error) {
	if vehicleCount <= 0 {
		return 1, fmt.Errorf("-vehicles %d is not a fleet", vehicleCount)
	}
	if !(applyFail >= 0 && applyFail <= 1) {
		return 1, fmt.Errorf("-apply-fail %v outside [0, 1]", applyFail)
	}
	if _, err := ir.Lookup(backend); err != nil {
		return 1, err
	}

	// The fleet's current set is the analysis-derived Table I policy — the
	// same set every simulated vehicle enforces by default.
	analysis, err := car.Analyze()
	if err != nil {
		return 1, err
	}
	current, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		return 1, err
	}
	candidate, err := loadCandidate(current, candidateFile, drill)
	if err != nil {
		return 1, err
	}

	// A deterministic OEM identity: the drill must replay bit-for-bit, so
	// the signing key derives from a fixed seed (ed25519 signatures are
	// deterministic given key and message).
	oem, err := core.NewOEM(bytes.NewReader(bytes.Repeat([]byte{0x42}, 64)))
	if err != nil {
		return 1, err
	}

	fleetVehicles, err := buildFleet(oem, current, vehicleCount, candidate.Version, applyFail, seed)
	if err != nil {
		return 1, err
	}

	cfg := rollout.Config{
		OEM:       oem,
		Current:   current,
		Candidate: candidate,
		Vehicles:  fleetVehicles,
		Backend:   backend,
		Workers:   workers,
		Shards:    shards,
		RootSeed:  seed,
		Tolerance: tolerance,
		Telemetry: os.Stderr,
	}
	if !noGate {
		cfg.GateSpec = &risk.Spec{Model: "connected-car", Seed: seed}
	}
	outcome, err := rollout.Run(cfg)
	if err != nil {
		return 1, err
	}
	fmt.Print(outcome)
	if outcome.RolledBack {
		return 2, nil
	}
	return 0, nil
}

// loadCandidate reads the candidate set from a DSL file, or generates the
// requested drill candidate from the current set.
func loadCandidate(current *policy.Set, path, drill string) (*policy.Set, error) {
	if path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		set, err := policy.Parse(string(raw))
		if err != nil {
			return nil, err
		}
		return set, nil
	}
	cand := *current
	cand.Rules = append([]policy.Rule(nil), current.Rules...)
	cand.Version = current.Version + 1
	switch drill {
	case "advance":
		// A benign re-issue: same semantics, next version. The gate measures
		// identical residuals and the candidate advances cleanly.
	case "rollback":
		// A candidate with a semantic hole: a blanket allow across the whole
		// identifier space drops every defended block, so the gate sweep's
		// residual risk regresses and the driver must retreat.
		cand.Rules = append(cand.Rules, policy.Rule{
			Name:    "overbroad-diagnostic-access",
			Subject: policy.SubjectAll,
			Effect:  policy.Allow,
			Action:  policy.ActReadWrite,
			IDs:     policy.IDSet{{Lo: 0, Hi: 0x7FF}},
		})
	default:
		return nil, fmt.Errorf("unknown -drill %q (want advance or rollback)", drill)
	}
	if err := cand.Validate(); err != nil {
		return nil, err
	}
	return &cand, nil
}

// buildFleet provisions vehicleCount policy-store endpoints, all running the
// current set. Each vehicle verifies bundles against the OEM key and keeps
// the store's version monotonicity; a bundle the vehicle already runs counts
// as success (idempotent re-runs). applyFail > 0 makes a deterministic
// per-vehicle fraction reject the CANDIDATE version specifically — seeded
// canary failures for the abort-threshold drill; the rollback bundle (a
// different version) is never sabotaged.
func buildFleet(oem *core.OEM, current *policy.Set, vehicleCount int, candidateVersion uint64, applyFail float64, seed uint64) ([]fleet.Vehicle, error) {
	baseBundle, err := oem.Issue(current)
	if err != nil {
		return nil, err
	}
	opts := policy.CompileOptions{Subjects: car.AllNodes, Modes: car.AllModes}
	out := make([]fleet.Vehicle, vehicleCount)
	for i := 0; i < vehicleCount; i++ {
		store := policy.NewStore(oem.PublicKey(), opts)
		if _, err := store.Apply(baseBundle); err != nil {
			return nil, fmt.Errorf("provisioning vehicle %d: %w", i, err)
		}
		idx := i
		out[i] = fleet.VehicleFunc{
			VID: fmt.Sprintf("VIN-%06d", i),
			Fn: func(b *policy.Bundle) error {
				if s := store.CurrentSet(); s != nil && s.Version >= b.Version {
					return nil // already current (idempotent re-run)
				}
				if applyFail > 0 && b.Version == candidateVersion &&
					chaos.Roll(seed, saltApplyFail, idx) < applyFail {
					return fmt.Errorf("simulated update failure (vehicle %d)", idx)
				}
				_, err := store.Apply(b)
				return err
			},
		}
	}
	return out, nil
}
