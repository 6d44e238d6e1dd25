package risk

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/dread"
	"repro/internal/engine"
	"repro/internal/stride"
	"repro/internal/threatmodel"
)

// Delta is a per-component DREAD adjustment derived from sweep evidence.
// Each component is bounded to [-2, +2]; Discoverability is always 0 — the
// simulation measures what an attack achieves, not how easily its weakness
// is found, and pretending otherwise would launder a guess through the
// calibration.
type Delta struct {
	Damage, Reproducibility, Exploitability, AffectedUsers, Discoverability int
}

// String renders the delta compactly ("D+1 R+0 E-2 A-2 Di+0").
func (d Delta) String() string {
	return fmt.Sprintf("D%+d R%+d E%+d A%+d Di%+d",
		d.Damage, d.Reproducibility, d.Exploitability, d.AffectedUsers, d.Discoverability)
}

// FamilyEvidence is the measured outcome of one synthesized family, split
// into the undefended (regime none) and defended (every other regime)
// halves the calibration bands are computed from.
type FamilyEvidence struct {
	// Name and Kind echo the family; Role is the synthesis role parsed back
	// out of the name (tamper, dos, chain).
	Name string
	Kind string
	Role string
	// Scenarios is the family's per-vehicle scenario count.
	Scenarios int
	// Undefended folds the family's regime-none aggregates; Defended folds
	// every enforcing regime.
	Undefended attack.Summary
	Defended   attack.Summary
	// GoalRuns/GoalHits count goal-predicate evaluations and hits on
	// goal-bearing (dos/chain) families; DefendedGoalHits restricts hits to
	// enforcing regimes. All three are zero for tamper families.
	GoalRuns         int
	GoalHits         int
	DefendedGoalHits int
	// Delta is the family-local adjustment the same banding yields from this
	// family's evidence alone.
	Delta Delta
}

// ThreatCalibration reconciles one threat's rubric score with the folded
// evidence of its synthesized families.
type ThreatCalibration struct {
	// ThreatID and Stride echo the rated threat.
	ThreatID string
	Stride   stride.Set
	// Rubric is the analyst score out of threatmodel.Analyze; Measured is
	// the rubric with the evidence delta applied (clamped to [0, 10]).
	Rubric   dread.Score
	Measured dread.Score
	// RubricRating and MeasuredRating are the severity bands of the two.
	RubricRating   dread.Rating
	MeasuredRating dread.Rating
	// Delta is the threat-level adjustment (evidence folded across
	// families).
	Delta Delta
	// UndefendedSuccess, DefendedSuccess and DefendedBlock summarise the
	// folded rates the bands were derived from.
	UndefendedSuccess float64
	DefendedSuccess   float64
	DefendedBlock     float64
	// GoalRuns/GoalHits/DefendedGoalHits fold the goal evidence.
	GoalRuns         int
	GoalHits         int
	DefendedGoalHits int
	// Residual is the ranked residual-risk mass: the measured average
	// discounted by the defended block rate. A threat the defence fully
	// blocks retains no residual risk however damaging its rubric says it
	// would be.
	Residual float64
	// Families holds the per-family evidence, in report order.
	Families []FamilyEvidence
}

// Profile is the calibrated risk profile of one swept model: the paper's
// DREAD table re-derived from measurement.
type Profile struct {
	// Model names the analysed use case.
	Model string
	// Campaign, Version, Seed, RootSeed, Fleet and Cells echo the sweep.
	Campaign string
	Version  uint64
	Seed     uint64
	RootSeed uint64
	Fleet    int
	Cells    int
	// Threats is ranked by descending residual risk (ties: higher measured
	// average first, then threat ID).
	Threats []ThreatCalibration
	// Uncovered lists analysis threats that synthesized no family, sorted.
	Uncovered []string
	// Health echoes the sweep's containment ledger — evidence provenance: a
	// profile calibrated from a sweep that quarantined cells says so.
	// HealthEnabled forces its line even when all-zero.
	Health        engine.Health
	HealthEnabled bool
}

// roleKinds maps synthesis roles to the generator kind they must carry —
// a consistency check that the report really came from a synthesized spec.
var roleKinds = map[string]string{
	RoleTamper: campaign.KindMutate,
	RoleDoS:    campaign.KindFlood,
	RoleChain:  campaign.KindStaged,
}

// Calibrate reconciles a rated analysis with the swept report of its
// synthesized campaign. It is a pure function of its inputs: the report is
// byte-identical across worker counts and pooled/fresh arenas, so the
// profile is too.
func Calibrate(a *threatmodel.Analysis, rep *campaign.CampaignReport) (*Profile, error) {
	byID := map[string]*ThreatCalibration{}
	order := []string{}
	for i := range rep.Families {
		fam := &rep.Families[i]
		role, threatID, ok := strings.Cut(fam.Name, "-")
		if !ok || roleKinds[role] == "" {
			return nil, fmt.Errorf("risk: family %q was not synthesized (want <role>-<threat>)", fam.Name)
		}
		if roleKinds[role] != fam.Kind {
			return nil, fmt.Errorf("risk: family %q: role %s expects kind %s, got %s",
				fam.Name, role, roleKinds[role], fam.Kind)
		}
		t, found := a.Threat(threatID)
		if !found {
			return nil, fmt.Errorf("risk: family %q references unknown threat %q", fam.Name, threatID)
		}
		tc := byID[threatID]
		if tc == nil {
			tc = &ThreatCalibration{
				ThreatID:     t.ID,
				Stride:       t.Stride,
				Rubric:       t.Score,
				RubricRating: t.Rating,
			}
			byID[threatID] = tc
			order = append(order, threatID)
		}
		tc.Families = append(tc.Families, foldFamily(fam, role))
	}
	if len(byID) == 0 {
		return nil, fmt.Errorf("risk: report %q carries no synthesized families", rep.Campaign)
	}

	p := &Profile{
		Model:         a.UseCase.Name,
		Campaign:      rep.Campaign,
		Version:       rep.Version,
		Seed:          rep.Seed,
		RootSeed:      rep.RootSeed,
		Fleet:         rep.Fleet,
		Cells:         rep.Cells,
		Health:        rep.Health,
		HealthEnabled: rep.HealthEnabled,
	}
	for _, id := range order {
		tc := byID[id]
		finishThreat(tc)
		p.Threats = append(p.Threats, *tc)
	}
	sort.SliceStable(p.Threats, func(i, j int) bool {
		a, b := &p.Threats[i], &p.Threats[j]
		if a.Residual != b.Residual {
			return a.Residual > b.Residual
		}
		if ma, mb := a.Measured.Average(), b.Measured.Average(); ma != mb {
			return ma > mb
		}
		return a.ThreatID < b.ThreatID
	})
	for _, t := range a.Threats {
		if byID[t.ID] == nil {
			p.Uncovered = append(p.Uncovered, t.ID)
		}
	}
	sort.Strings(p.Uncovered)
	return p, nil
}

// foldFamily splits one family report into evidence halves and computes the
// family-local delta.
func foldFamily(fam *campaign.FamilyReport, role string) FamilyEvidence {
	ev := FamilyEvidence{Name: fam.Name, Kind: fam.Kind, Role: role, Scenarios: fam.Scenarios}
	for _, rs := range fam.Regimes {
		if rs.Regime == attack.EnforceNone {
			ev.Undefended.Merge(rs.Summary)
		} else {
			ev.Defended.Merge(rs.Summary)
		}
		if role != RoleTamper {
			// Flood and staged scenarios succeed exactly when the threat's
			// goal predicate holds, so their success counters are goal
			// evidence.
			ev.GoalRuns += rs.Summary.Runs
			ev.GoalHits += rs.Summary.Succeeded
			if rs.Regime != attack.EnforceNone {
				ev.DefendedGoalHits += rs.Summary.Succeeded
			}
		}
	}
	ev.Delta = deltaFrom(ev.Undefended, ev.Defended, ev.GoalRuns, ev.GoalHits, ev.DefendedGoalHits)
	return ev
}

// finishThreat folds the threat's family evidence and derives the measured
// score, rating and residual-risk mass.
func finishThreat(tc *ThreatCalibration) {
	var undef, def attack.Summary
	for i := range tc.Families {
		f := &tc.Families[i]
		undef.Merge(f.Undefended)
		def.Merge(f.Defended)
		tc.GoalRuns += f.GoalRuns
		tc.GoalHits += f.GoalHits
		tc.DefendedGoalHits += f.DefendedGoalHits
	}
	tc.UndefendedSuccess = undef.SuccessRate()
	tc.DefendedSuccess = def.SuccessRate()
	tc.DefendedBlock = def.BlockRate()
	tc.Delta = deltaFrom(undef, def, tc.GoalRuns, tc.GoalHits, tc.DefendedGoalHits)
	tc.Measured = applyDelta(tc.Rubric, tc.Delta)
	tc.MeasuredRating = tc.Measured.Rate()
	tc.Residual = tc.Measured.Average() * (1 - tc.DefendedBlock)
}

// deltaFrom maps sweep evidence onto bounded DREAD adjustments. The bands
// are deliberately coarse — the sweep is evidence, not an oracle — and are
// the calibration contract DESIGN.md §8 documents:
//
//   - Reproducibility follows the undefended success rate: an attack that
//     lands every time is ReproAlways territory (+1); one that never lands
//     even with no defence loses two points.
//   - Exploitability follows what the defended regimes let through: any
//     success under enforcement raises it (+1, +2 from half the runs); a
//     defence that cleanly blocks everything lowers it by two.
//   - Affected users follows the block rates: a fully blocking defence
//     means a patched fleet has no affected users (-2); a partial defence
//     shrinks the population (-1); an unconditional undefended success
//     keeps the whole fleet exposed (+1).
//   - Damage follows goal hits: the declared effect materialising under
//     enforcement is worse than assessed (+1); never materialising at all
//     is better (-1).
//   - Discoverability never moves (see Delta).
func deltaFrom(undef, def attack.Summary, goalRuns, goalHits, defGoalHits int) Delta {
	var d Delta
	us := undef.SuccessRate()
	ds := def.SuccessRate()
	switch {
	case undef.Runs == 0:
		// No undefended evidence: leave the rubric alone.
	case us >= 0.999:
		d.Reproducibility = 1
	case us >= 0.5:
		d.Reproducibility = 0
	case us > 0:
		d.Reproducibility = -1
	default:
		d.Reproducibility = -2
	}
	switch {
	case def.Runs == 0:
		// Swept without an enforcing regime: no exploitability evidence.
	case ds >= 0.5:
		d.Exploitability = 2
	case ds > 0:
		d.Exploitability = 1
	case def.BlockRate() >= 0.999:
		d.Exploitability = -2
	default:
		d.Exploitability = -1
	}
	switch {
	case def.Runs > 0 && ds == 0:
		d.AffectedUsers = -2
	case def.Runs > 0 && ds < us:
		d.AffectedUsers = -1
	case us >= 0.999:
		d.AffectedUsers = 1
	}
	switch {
	case goalRuns == 0:
		// No goal-bearing family: damage evidence absent.
	case defGoalHits > 0:
		d.Damage = 1
	case goalHits == 0:
		d.Damage = -1
	}
	return d
}

// applyDelta shifts each rubric component by its delta, clamped to the
// DREAD scale.
func applyDelta(s dread.Score, d Delta) dread.Score {
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > dread.MaxComponent {
			return dread.MaxComponent
		}
		return v
	}
	return dread.MustNew(
		clamp(s.Damage+d.Damage),
		clamp(s.Reproducibility+d.Reproducibility),
		clamp(s.Exploitability+d.Exploitability),
		clamp(s.AffectedUsers+d.AffectedUsers),
		clamp(s.Discoverability+d.Discoverability),
	)
}
