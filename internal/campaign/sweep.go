package campaign

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard"
)

// SweepConfig parameterises a fleet-scale campaign sweep.
type SweepConfig struct {
	// Fleet is the number of vehicles swept per family (default 1).
	Fleet int
	// Workers bounds the fleet engine's worker pool (default GOMAXPROCS).
	Workers int
	// RootSeed feeds per-family fleet-root derivation; each family mixes it
	// with its own sub-seed, so families decorrelate and the whole report
	// is a pure function of (spec, RootSeed, Fleet).
	RootSeed uint64
	// TrafficHorizon is the live background simulation's virtual span
	// (default 10ms); the live phase runs once per vehicle visit, before the
	// vehicle's family cells.
	TrafficHorizon time.Duration
	// ErrorRate enables bus error injection in the live phase.
	ErrorRate float64
	// NoBatch selects the engine's reference oracle (fresh stacks, cell by
	// cell) instead of the default pooled batched executor (prefix
	// checkpointing + cross-vehicle stamping); both render byte-identical
	// reports.
	NoBatch bool
	// Chaos arms the engine's deterministic fault injection (nil: none).
	Chaos *chaos.Plan
	// VerifySample cross-checks this fraction of batched cells against the
	// cell-by-cell oracle inline (0: no sampling).
	VerifySample float64
	// PolicyBackend names the policy backend vehicles enforce with ("table",
	// "expr", "closure"; empty = table). All backends are decision-equivalent
	// — the differential suite asserts it — so reports are byte-identical
	// across backends; the axis exists for the ablation benchmarks and for
	// exercising the non-default compilers at fleet scale.
	PolicyBackend string
	// Harness, when non-nil, overrides the backend-derived harness: the
	// sweep enforces with exactly this compiled policy. OTA gate sweeps use
	// it to measure a candidate policy set before any vehicle installs it.
	// Ignored by subprocess shards (SpawnShard), which rebuild their own
	// stack from flags.
	Harness *attack.Harness
	// Shards partitions the fleet into that many contiguous index ranges,
	// each an independent engine run, merged byte-identically to the
	// unsharded sweep (<=1: unsharded).
	Shards int
	// SpawnShard, when non-nil, runs each shard range out of process (and
	// implies sharded execution even when Shards <= 1); carsim wires it to
	// re-invoke itself with -shard-range.
	SpawnShard shard.Spawn
	// ShardParallelism bounds how many spawned shards run concurrently
	// (<=1: sequential). Each shard folds as it arrives and the folds
	// combine exactly, so the report is byte-identical at any level.
	ShardParallelism int
}

// FamilyReport is one family's fleet-merged outcome.
type FamilyReport struct {
	// Name and Kind echo the family.
	Name string
	Kind string
	// Scenarios is the family's per-vehicle scenario count.
	Scenarios int
	// Regimes holds one fleet-merged aggregate per enforcement regime, in
	// the family's sweep order.
	Regimes []attack.RegimeSummary
}

// CampaignReport is the deterministic outcome of one campaign sweep:
// byte-identical for a given (spec, RootSeed, Fleet) across worker counts
// and across batched/oracle runs, which is why it records neither.
type CampaignReport struct {
	// Campaign, Version and Seed echo the spec.
	Campaign string
	Version  uint64
	Seed     uint64
	// RootSeed and Fleet echo the sweep configuration.
	RootSeed uint64
	Fleet    int
	// ScenariosPerVehicle and Cells size the sweep (Cells counts
	// scenario×regime×vehicle executions).
	ScenariosPerVehicle int
	Cells               int
	// FramesDelivered, BusErrors and MeanUtilisation are the live
	// background-simulation counters (collected with the first family).
	FramesDelivered uint64
	BusErrors       uint64
	MeanUtilisation float64
	// Families holds per-family aggregates, in declaration order.
	Families []FamilyReport
	// Totals folds every family's aggregates per regime, ordered by first
	// appearance across the campaign.
	Totals []attack.RegimeSummary
	// Health is the sweep supervisor's fleet-folded containment ledger;
	// HealthEnabled forces its line to render even when all-zero (set when
	// chaos injection or verify sampling was armed).
	Health        engine.Health
	HealthEnabled bool
}

// Sweep executes the plan on the fleet engine in one vehicle-major pass: the
// families compile into engine scenario groups, every worker claims a
// vehicle, runs the live background phase once and then sweeps *all*
// families' scenario×regime cells on its warm arena before moving on. Sweep
// itself is a thin planner and folder — it derives per-family fleet roots,
// hands the engine the whole campaign, and folds the fleet-merged group
// aggregates into a CampaignReport in deterministic family order. It reads
// no per-vehicle report, so it runs engine.Aggregate unsharded and
// shard.Aggregate sharded, which fold a fully stamped fleet, or each
// shard's stamped range, without materialising it. The report is
// byte-identical to the retired family-major executor's (one engine run
// per family with a barrier between), which survives as the equivalence
// oracle in the engine's group tests.
func Sweep(plan *Plan, cfg SweepConfig) (*CampaignReport, error) {
	if cfg.Fleet <= 0 {
		cfg.Fleet = 1
	}
	ecfg, err := EngineConfig(plan, cfg)
	if err != nil {
		return nil, err
	}
	var fr *engine.FleetReport
	if cfg.Shards > 1 || cfg.SpawnShard != nil {
		fr, err = shard.Aggregate(shard.Config{
			Engine: ecfg, Shards: cfg.Shards,
			Spawn: cfg.SpawnShard, Parallelism: cfg.ShardParallelism,
		})
	} else {
		fr, err = engine.Aggregate(ecfg, nil)
	}
	if err != nil {
		// An unrecoverable sweep still merges what completed: fold the
		// partial fleet report (with its Health ledger, which records the
		// unrecoverable cells) so callers can flush it alongside the error.
		if fr == nil {
			return nil, fmt.Errorf("campaign %q: %w", plan.Spec.Name, err)
		}
		return foldReport(plan, cfg, fr), fmt.Errorf("campaign %q: %w", plan.Spec.Name, err)
	}
	return foldReport(plan, cfg, fr), nil
}

// EngineConfig builds the whole-fleet engine configuration Sweep runs (or
// shards): per-family scenario groups with their derived fleet roots, the
// enforcement harness, and every supervision knob. Exported so a subprocess
// shard — which receives only the campaign file and the sweep flags — can
// rebuild the exact configuration its parent partitions, then stream its
// index range with shard.RunRangeWire.
func EngineConfig(plan *Plan, cfg SweepConfig) (engine.Config, error) {
	if cfg.Fleet <= 0 {
		cfg.Fleet = 1
	}
	if cfg.TrafficHorizon <= 0 {
		cfg.TrafficHorizon = 10 * time.Millisecond
	}
	if len(plan.Families) == 0 {
		return engine.Config{}, fmt.Errorf("campaign %q has no families", plan.Spec.Name)
	}
	h := cfg.Harness
	if h == nil {
		var err error
		if h, err = attack.NewHarnessBackend(cfg.PolicyBackend); err != nil {
			return engine.Config{}, err
		}
	}
	groups := make([]engine.ScenarioGroup, len(plan.Families))
	for fi := range plan.Families {
		fam := &plan.Families[fi]
		// The family's fleet root blends the sweep root with the family
		// sub-seed through the stack's shared SplitMix64 step, so vehicle i
		// of family A never correlates with vehicle i of family B.
		groups[fi] = engine.ScenarioGroup{
			Name:      fam.Name,
			Scenarios: fam.Scenarios,
			Regimes:   fam.Regimes,
			RootSeed:  engine.VehicleSeed(cfg.RootSeed^fam.Seed, fi),
		}
	}
	return engine.Config{
		Fleet:          cfg.Fleet,
		Workers:        cfg.Workers,
		Groups:         groups,
		TrafficHorizon: cfg.TrafficHorizon,
		ErrorRate:      cfg.ErrorRate,
		Harness:        h,
		SkipMAC:        true,
		NoBatch:        cfg.NoBatch,
		Chaos:          cfg.Chaos,
		VerifySample:   cfg.VerifySample,
	}, nil
}

// foldReport folds a (possibly partial) fleet report into the campaign view.
func foldReport(plan *Plan, cfg SweepConfig, fr *engine.FleetReport) *CampaignReport {
	rep := &CampaignReport{
		Campaign:            plan.Spec.Name,
		Version:             plan.Spec.Version,
		Seed:                plan.Spec.Seed,
		RootSeed:            cfg.RootSeed,
		Fleet:               cfg.Fleet,
		ScenariosPerVehicle: plan.ScenariosPerVehicle(),
		Cells:               plan.CellsPerVehicle() * cfg.Fleet,
		FramesDelivered:     fr.FramesDelivered,
		BusErrors:           fr.BusErrors,
		MeanUtilisation:     fr.MeanUtilisation,
		Health:              fr.Health,
		HealthEnabled:       fr.HealthEnabled,
	}
	for fi := range plan.Families {
		fam := &plan.Families[fi]
		rep.Families = append(rep.Families, FamilyReport{
			Name:      fam.Name,
			Kind:      fam.Kind,
			Scenarios: len(fam.Scenarios),
			Regimes:   fr.Groups[fi].Regimes,
		})
		for _, rs := range fr.Groups[fi].Regimes {
			rep.fold(rs)
		}
	}
	return rep
}

// fold merges one regime aggregate into the campaign totals, keyed by
// regime in first-appearance order.
func (r *CampaignReport) fold(rs attack.RegimeSummary) {
	for i := range r.Totals {
		if r.Totals[i].Regime == rs.Regime {
			r.Totals[i].Summary.Merge(rs.Summary)
			return
		}
	}
	r.Totals = append(r.Totals, rs)
}
