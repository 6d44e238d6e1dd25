package risk

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/policy"
	"repro/internal/stride"
	"repro/internal/threatmodel"
)

// Synthesized-family name prefixes. Calibrate parses them back out of the
// CampaignReport, so the prefix is the forward/backward contract.
const (
	// RoleTamper marks payload-mutation families (tampering threats).
	RoleTamper = "tamper"
	// RoleDoS marks coordinated flood families (denial-of-service threats).
	RoleDoS = "dos"
	// RoleChain marks staged kill-chain families (elevation threats).
	RoleChain = "chain"
)

// SynthesisConfig parameterises the threat-model → campaign compilation.
// The zero value synthesizes every threat with the default axes.
type SynthesisConfig struct {
	// Name labels the campaign (default "risk-<use case>").
	Name string
	// Seed salts family sub-seed derivation (campaign.Spec.Seed).
	Seed uint64
	// Regimes is the enforcement sweep (default none, hpe).
	Regimes []string
	// Threats filters synthesis to the listed threat IDs (empty = all);
	// unknown IDs are an error.
	Threats []string
	// Payloads is the tamper families' payload-mutation axis
	// (default 01, FF, AA).
	Payloads []campaign.HexBytes
	// FloodRate is the dos families' inter-frame gap (default 250us).
	FloodRate campaign.Duration
	// FloodFrames is the dos families' frames-per-attacker (default 24).
	FloodFrames int
}

func (cfg *SynthesisConfig) applyDefaults(useCase string) {
	if cfg.Name == "" {
		cfg.Name = "risk-" + useCase
	}
	if len(cfg.Regimes) == 0 {
		cfg.Regimes = []string{"none", "hpe"}
	}
	if len(cfg.Payloads) == 0 {
		cfg.Payloads = []campaign.HexBytes{{0x01}, {0xFF}, {0xAA}}
	}
	if cfg.FloodRate <= 0 {
		cfg.FloodRate = campaign.Duration(250 * time.Microsecond)
	}
	if cfg.FloodFrames <= 0 {
		cfg.FloodFrames = 24
	}
}

// Synthesize compiles a rated analysis into a campaign spec: one family per
// (threat, STRIDE role) pair, named "<role>-<threat id>".
//
// Role mapping:
//
//   - Tampering → a mutate family over the threat's baseline scenario with
//     the payload axis crossed against the threat's declared modes. Mutants
//     inherit the baseline's setup and success check, so precondition-bound
//     threats stay measurable.
//   - Denial of service → a flood family: the baseline's attacker streams
//     the baseline's identifier at the flood rate; the threat's Goal
//     predicate decides success.
//   - Elevation of privilege → a staged kill chain: the baseline injections
//     as the breach stage, then a persistence stage gated on the threat's
//     Goal having materialised.
//
// Flood and staged families are declarative (no setup hooks), so they are
// only synthesized for threats whose baseline needs no setup and whose Goal
// names a known campaign predicate; tamper families carry the rest. The
// spec is canonical (Normalize) and validated, so it satisfies the DSL
// round-trip invariant and compiles on the Table I catalog.
func Synthesize(a *threatmodel.Analysis, cfg SynthesisConfig) (*campaign.Spec, error) {
	cfg.applyDefaults(a.UseCase.Name)
	threats, err := selectThreats(a, cfg.Threats)
	if err != nil {
		return nil, err
	}
	bases := attack.Scenarios()
	var gens []campaign.GeneratorSpec
	for _, t := range threats {
		base, ok := campaign.BaseFor(bases, t.ID)
		if !ok {
			// No executable baseline: the threat cannot be grounded in the
			// simulation. An explicit filter asking for it is an error; a
			// whole-model synthesis skips it (Calibrate reports it as
			// uncovered).
			if len(cfg.Threats) > 0 {
				return nil, fmt.Errorf("risk: threat %s has no baseline scenario", t.ID)
			}
			continue
		}
		if t.Goal != "" && !campaign.HasPredicate(t.Goal) {
			return nil, fmt.Errorf("risk: threat %s declares unknown goal predicate %q", t.ID, t.Goal)
		}
		goalOK := t.Goal != "" && base.Setup == nil
		if t.Stride.Has(stride.Tampering) {
			gens = append(gens, tamperFamily(&cfg, t))
		}
		if t.Stride.Has(stride.DenialOfService) && goalOK {
			gens = append(gens, floodFamily(&cfg, t, &base))
		}
		if t.Stride.Has(stride.ElevationOfPrivilege) && goalOK {
			gens = append(gens, chainFamily(t, &base))
		}
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("risk: model %q synthesized no families", a.UseCase.Name)
	}
	spec := &campaign.Spec{
		Name:       cfg.Name,
		Version:    1,
		Seed:       cfg.Seed,
		Regimes:    cfg.Regimes,
		Generators: gens,
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("risk: synthesized spec invalid: %w", err)
	}
	return spec, nil
}

// selectThreats applies the ID filter, preserving analysis (severity) order.
func selectThreats(a *threatmodel.Analysis, filter []string) ([]threatmodel.RatedThreat, error) {
	if len(filter) == 0 {
		return a.Threats, nil
	}
	want := map[string]bool{}
	for _, id := range filter {
		if _, ok := a.Threat(id); !ok {
			return nil, fmt.Errorf("risk: model has no threat %q", id)
		}
		want[id] = true
	}
	out := make([]threatmodel.RatedThreat, 0, len(want))
	for _, t := range a.Threats {
		if want[t.ID] {
			out = append(out, t)
		}
	}
	return out, nil
}

// tamperFamily builds the payload-mutation family of a tampering threat.
func tamperFamily(cfg *SynthesisConfig, t threatmodel.RatedThreat) campaign.GeneratorSpec {
	return campaign.GeneratorSpec{
		Kind:     campaign.KindMutate,
		Name:     RoleTamper + "-" + t.ID,
		Base:     t.ID,
		Modes:    modeWords(t.Modes),
		Payloads: cfg.Payloads,
	}
}

// floodFamily builds the coordinated-flood family of a DoS threat: the
// baseline attacker floods the baseline identifier, success measured by the
// threat's goal predicate.
func floodFamily(cfg *SynthesisConfig, t threatmodel.RatedThreat, base *attack.Scenario) campaign.GeneratorSpec {
	inj := base.Injections[0]
	return campaign.GeneratorSpec{
		Kind:    campaign.KindFlood,
		Name:    RoleDoS + "-" + t.ID,
		ID:      inj.ID,
		Payload: campaign.HexBytes(inj.Data),
		Teams:   [][]string{{base.Attacker}},
		Rates:   []campaign.Duration{cfg.FloodRate},
		Frames:  []int{cfg.FloodFrames},
		Goal:    t.Goal,
	}
}

// chainFamily builds the staged kill chain of an elevation threat: breach
// with the baseline injections, then persist — re-asserting the effect —
// only if the goal predicate reports the breach landed.
func chainFamily(t threatmodel.RatedThreat, base *attack.Scenario) campaign.GeneratorSpec {
	breach := make([]campaign.InjectionSpec, len(base.Injections))
	for i, inj := range base.Injections {
		breach[i] = campaign.InjectionSpec{
			ID:     inj.ID,
			Data:   campaign.HexBytes(inj.Data),
			Repeat: inj.Repeat,
			Gap:    campaign.Duration(inj.Gap),
		}
	}
	last := base.Injections[len(base.Injections)-1]
	persist := campaign.InjectionSpec{
		ID:     last.ID,
		Data:   campaign.HexBytes(last.Data),
		Repeat: 2,
		Gap:    campaign.Duration(time.Millisecond),
	}
	return campaign.GeneratorSpec{
		Kind:       campaign.KindStaged,
		Name:       RoleChain + "-" + t.ID,
		Attackers:  []string{base.Attacker},
		Placements: []string{base.Placement.String()},
		Modes:      []string{string(base.Mode)},
		Goal:       t.Goal,
		Stages: []campaign.StageSpec{
			{Name: "breach", Injections: breach},
			{Name: "persist", Proceed: t.Goal, Injections: []campaign.InjectionSpec{persist}},
		},
	}
}

// modeWords renders the threat's mode list as DSL words.
func modeWords(modes []policy.Mode) []string {
	out := make([]string, len(modes))
	for i, m := range modes {
		out[i] = string(m)
	}
	return out
}
