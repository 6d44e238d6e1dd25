// Package risk closes the loop between the paper's threat model and the
// fleet-scale campaign engine: instead of leaving DREAD scores as asserted
// rubric judgements, it measures them.
//
// The bridge is bidirectional:
//
//   - Forward (Synthesize): a rated threat-model analysis compiles into a
//     campaign.Spec. Each STRIDE-classified threat contributes generated
//     families — tampering threats become payload-mutation families over
//     their Table I baseline, denial-of-service threats become coordinated
//     flood families against the baseline's identifier, and
//     elevation-of-privilege threats become predicate-gated staged kill
//     chains. The threat model itself is therefore a campaign generator.
//   - Backward (Calibrate): the swept CampaignReport is reconciled with the
//     rubric scores. Per-regime block rates adjust Exploitability and
//     Affected-users, undefended success rates adjust Reproducibility, and
//     goal hits on flood/staged families adjust Damage. The result is a
//     Profile carrying rubric-vs-measured deltas per threat and a ranked
//     residual-risk table.
//
// Determinism matches the campaign engine's contract: a Profile is a pure
// function of (analysis, CampaignReport), and the report is byte-identical
// across worker counts and pooled/fresh arenas, so profiles are too. Family
// sub-seeds derive from the synthesized spec's seed through the stack's
// shared SplitMix64 step (campaign.Compiler), so sub-campaigns decorrelate
// deterministically. The sweep underneath is the vehicle-major executor
// (one engine pass over the fleet, every synthesized family per vehicle
// visit — see campaign.Sweep), which Calibrate inherits transparently: the
// family blocks it folds arrive in the same declaration order with the
// same per-(family, vehicle) seeds as the retired family-major sweeps.
package risk

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/car"
	"repro/internal/chaos"
	"repro/internal/shard"
	"repro/internal/threatmodel"
)

// Spec is a risk-run definition: which threat model to calibrate, which of
// its threats, and how the synthesized campaign is sized and swept. Shipped
// specs live under examples/threatmodels.
type Spec struct {
	// Model names a registered threat model (see ModelNames).
	Model string `json:"model"`
	// Name overrides the synthesized campaign's name
	// (default "risk-<model>").
	Name string `json:"name,omitempty"`
	// Threats filters the analysis to the listed threat IDs (empty = all).
	Threats []string `json:"threats,omitempty"`
	// Seed salts family sub-seed derivation in the synthesized campaign.
	Seed uint64 `json:"seed,omitempty"`
	// RootSeed pins the sweep's fleet root; when set it wins over the
	// caller's root seed so the spec fully determines the profile.
	RootSeed uint64 `json:"root_seed,omitempty"`
	// Fleet sizes the swept vehicle population; when set it wins over the
	// caller's fleet size.
	Fleet int `json:"fleet,omitempty"`
	// Regimes is the enforcement sweep of every synthesized family
	// (default none, hpe).
	Regimes []string `json:"regimes,omitempty"`
	// Payloads overrides the tamper families' payload-mutation axis.
	Payloads []campaign.HexBytes `json:"payloads,omitempty"`
	// FloodRate overrides the dos families' inter-frame gap.
	FloodRate campaign.Duration `json:"flood_rate,omitempty"`
	// FloodFrames overrides the dos families' frames-per-attacker count.
	FloodFrames int `json:"flood_frames,omitempty"`
}

// ParseSpec reads a JSON risk-run spec and validates its model reference.
func ParseSpec(src string) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	sp := &Spec{}
	if err := dec.Decode(sp); err != nil {
		return nil, fmt.Errorf("risk: bad spec: %w", err)
	}
	if _, ok := models[sp.Model]; !ok {
		return nil, fmt.Errorf("risk: unknown model %q (known: %s)",
			sp.Model, strings.Join(ModelNames(), ", "))
	}
	if sp.Fleet < 0 {
		return nil, fmt.Errorf("risk: negative fleet %d", sp.Fleet)
	}
	if sp.FloodFrames < 0 {
		return nil, fmt.Errorf("risk: negative flood_frames %d", sp.FloodFrames)
	}
	return sp, nil
}

// models registers the analysable threat models by name.
var models = map[string]func() (*threatmodel.Analysis, error){
	"connected-car": car.Analyze,
}

// ModelNames lists the registered threat models, sorted.
func ModelNames() []string {
	out := make([]string, 0, len(models))
	for k := range models {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Analysis runs the registered model's threat-modelling pipeline.
func Analysis(model string) (*threatmodel.Analysis, error) {
	fn, ok := models[model]
	if !ok {
		return nil, fmt.Errorf("risk: unknown model %q (known: %s)",
			model, strings.Join(ModelNames(), ", "))
	}
	return fn()
}

// RunConfig parameterises the sweep half of a risk run. Fleet and RootSeed
// are fallbacks: a spec that sets its own values wins, so a shipped spec
// yields one well-defined profile whatever flags the caller passes.
type RunConfig struct {
	// Fleet is the vehicle population when the spec leaves it unset
	// (default 1).
	Fleet int
	// Workers bounds the fleet engine's worker pool (default GOMAXPROCS).
	Workers int
	// RootSeed feeds the sweep when the spec leaves it unset.
	RootSeed uint64
	// NoBatch selects the engine's reference oracle (fresh stacks, cell by
	// cell) instead of the default pooled batched executor; the profile is
	// byte-identical either way.
	NoBatch bool
	// Chaos arms the sweep supervisor's deterministic fault injection.
	Chaos *chaos.Plan
	// VerifySample cross-checks this fraction of batched cells against the
	// cell-by-cell oracle inline.
	VerifySample float64
	// MaxRetries bounds the supervisor's per-rung retry budget (default 2).
	MaxRetries int
	// PolicyBackend names the policy backend vehicles enforce with; the
	// profile is byte-identical across backends (decision equivalence).
	PolicyBackend string
	// Harness, when non-nil, overrides the backend-derived harness so the
	// sweep enforces with exactly this compiled policy — the OTA rollout
	// driver measures candidate bundles this way before any vehicle
	// installs them.
	Harness *attack.Harness
	// Shards partitions the sweep's fleet into that many contiguous index
	// ranges run as independent engine runs; the profile is byte-identical
	// across shard counts (<=1: unsharded).
	Shards int
	// SpawnShard, when non-nil, runs each shard range out of process (see
	// campaign.SweepConfig.SpawnShard).
	SpawnShard shard.Spawn
	// ShardParallelism bounds how many spawned shards run concurrently
	// (see campaign.SweepConfig.ShardParallelism).
	ShardParallelism int
}

// Outcome bundles every artifact of one risk run.
type Outcome struct {
	// Analysis is the rated threat model.
	Analysis *threatmodel.Analysis
	// Spec is the synthesized campaign.
	Spec *campaign.Spec
	// Plan is its compiled form.
	Plan *campaign.Plan
	// Report is the swept outcome.
	Report *campaign.CampaignReport
	// Profile is the calibrated risk profile.
	Profile *Profile
}

// Compile runs the pipeline's OEM-side half — analyse the model, synthesize
// the campaign, compile it — without sweeping anything. The returned
// Outcome carries Analysis, Spec and Plan only.
func Compile(sp *Spec) (*Outcome, error) {
	a, err := Analysis(sp.Model)
	if err != nil {
		return nil, err
	}
	spec, err := Synthesize(a, SynthesisConfig{
		Name:        sp.Name,
		Seed:        sp.Seed,
		Regimes:     sp.Regimes,
		Threats:     sp.Threats,
		Payloads:    sp.Payloads,
		FloodRate:   sp.FloodRate,
		FloodFrames: sp.FloodFrames,
	})
	if err != nil {
		return nil, err
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		return nil, err
	}
	return &Outcome{Analysis: a, Spec: spec, Plan: plan}, nil
}

// SweepSetup compiles the spec and resolves the sweep configuration the
// pipeline runs under — the spec's Fleet/RootSeed win over the config's, so
// a shipped spec yields one well-defined profile whatever flags the caller
// passes. Exported so a subprocess shard can rebuild the exact whole-fleet
// configuration its parent partitions (via campaign.EngineConfig) from the
// same spec file and flags.
func SweepSetup(sp *Spec, rc RunConfig) (*Outcome, campaign.SweepConfig, error) {
	out, err := Compile(sp)
	if err != nil {
		return nil, campaign.SweepConfig{}, err
	}
	fleet := rc.Fleet
	if sp.Fleet > 0 {
		fleet = sp.Fleet
	}
	root := rc.RootSeed
	if sp.RootSeed != 0 {
		root = sp.RootSeed
	}
	return out, campaign.SweepConfig{
		Fleet:            fleet,
		Workers:          rc.Workers,
		RootSeed:         root,
		NoBatch:          rc.NoBatch,
		Chaos:            rc.Chaos,
		VerifySample:     rc.VerifySample,
		MaxRetries:       rc.MaxRetries,
		PolicyBackend:    rc.PolicyBackend,
		Harness:          rc.Harness,
		Shards:           rc.Shards,
		SpawnShard:       rc.SpawnShard,
		ShardParallelism: rc.ShardParallelism,
	}, nil
}

// Run executes the full pipeline: analyse the model, synthesize the
// campaign, sweep it on the fleet engine, and calibrate the profile.
func Run(sp *Spec, rc RunConfig) (*Outcome, error) {
	out, scfg, err := SweepSetup(sp, rc)
	if err != nil {
		return nil, err
	}
	rep, err := campaign.Sweep(out.Plan, scfg)
	out.Report = rep
	if err != nil {
		// An unrecoverable sweep still yields the partial campaign report
		// (Health ledger included); the profile is not calibrated — scoring
		// DREAD deltas from an incomplete sweep would present partial block
		// rates as measurements.
		return out, err
	}
	prof, err := Calibrate(out.Analysis, rep)
	if err != nil {
		return out, err
	}
	out.Profile = prof
	return out, nil
}
