package risk

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/car"
	"repro/internal/stride"
	"repro/internal/threatmodel"
)

func analysis(t testing.TB) *threatmodel.Analysis {
	t.Helper()
	a, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSynthesizeRoleMapping checks the STRIDE → family mapping: every
// tampering threat gets a payload-mutation family, DoS threats with
// setup-free baselines get flood families, elevation threats get staged
// chains, and precondition-bound threats get mutate families only.
func TestSynthesizeRoleMapping(t *testing.T) {
	a := analysis(t)
	spec, err := Synthesize(a, SynthesisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*campaign.GeneratorSpec{}
	for i := range spec.Generators {
		byName[spec.Generators[i].Name] = &spec.Generators[i]
	}
	bases := attack.Scenarios()
	for _, th := range a.Threats {
		base, ok := campaign.BaseFor(bases, th.ID)
		if !ok {
			continue
		}
		declarative := base.Setup == nil && th.Goal != ""
		checks := []struct {
			role string
			cat  stride.Category
			kind string
			want bool
		}{
			{RoleTamper, stride.Tampering, campaign.KindMutate, th.Stride.Has(stride.Tampering)},
			{RoleDoS, stride.DenialOfService, campaign.KindFlood, th.Stride.Has(stride.DenialOfService) && declarative},
			{RoleChain, stride.ElevationOfPrivilege, campaign.KindStaged, th.Stride.Has(stride.ElevationOfPrivilege) && declarative},
		}
		for _, c := range checks {
			g, present := byName[c.role+"-"+th.ID]
			if present != c.want {
				t.Errorf("threat %s (%s): family %s-%s present=%v want %v",
					th.ID, th.Stride, c.role, th.ID, present, c.want)
				continue
			}
			if present && g.Kind != c.kind {
				t.Errorf("family %s has kind %s, want %s", g.Name, g.Kind, c.kind)
			}
		}
	}
	// The synthesized spec must satisfy the DSL round-trip invariant.
	reparsed, err := campaign.Parse(spec.String())
	if err != nil {
		t.Fatalf("synthesized spec does not re-parse: %v\n%s", err, spec)
	}
	if !reflect.DeepEqual(spec, reparsed) {
		t.Errorf("synthesized spec changed through render round trip\n--- built ---\n%+v\n--- reparsed ---\n%+v", spec, reparsed)
	}
}

// TestSynthesizeFilter restricts synthesis to explicit threat IDs and
// rejects unknown ones.
func TestSynthesizeFilter(t *testing.T) {
	a := analysis(t)
	spec, err := Synthesize(a, SynthesisConfig{Threats: []string{car.ThreatConnCritModify}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range spec.Generators {
		if !strings.HasSuffix(g.Name, "-"+car.ThreatConnCritModify) {
			t.Errorf("filtered synthesis produced foreign family %q", g.Name)
		}
	}
	if len(spec.Generators) != 3 { // STIDE, no setup: tamper + dos + chain
		t.Errorf("CONN-1 synthesized %d families, want 3", len(spec.Generators))
	}
	if _, err := Synthesize(a, SynthesisConfig{Threats: []string{"NOPE-1"}}); err == nil {
		t.Error("unknown threat filter accepted")
	}
}

// TestSynthesizeRejectsUnknownGoal: a threat declaring a goal outside the
// campaign predicate vocabulary must fail loudly, not silently mismeasure.
func TestSynthesizeRejectsUnknownGoal(t *testing.T) {
	a := analysis(t)
	a.Threats[0].Goal = "not-a-predicate"
	if _, err := Synthesize(a, SynthesisConfig{}); err == nil {
		t.Error("unknown goal predicate accepted")
	}
}

// TestCalibrateExampleModel runs the full pipeline on the example spec and
// checks the acceptance contract: every synthesized family yields measured
// adjustments, every covered threat reconciles rubric vs measured, and the
// defended block rates land where the paper's Table I evaluation puts them.
func TestCalibrateExampleModel(t *testing.T) {
	out, err := Run(&Spec{Model: "connected-car", Seed: 42, RootSeed: 42}, campaign.SweepConfig{Fleet: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := out.Profile
	if p.Model != "connected-car" {
		t.Errorf("model = %q", p.Model)
	}
	if len(p.Uncovered) != 0 {
		t.Errorf("uncovered threats on the full model: %v", p.Uncovered)
	}
	if len(p.Threats) != 16 {
		t.Fatalf("calibrated %d threats, want 16", len(p.Threats))
	}
	families := 0
	for _, tc := range p.Threats {
		if len(tc.Families) == 0 {
			t.Errorf("threat %s has no family evidence", tc.ThreatID)
		}
		for _, f := range tc.Families {
			families++
			if f.Undefended.Runs == 0 || f.Defended.Runs == 0 {
				t.Errorf("family %s missing evidence: undef=%d def=%d runs",
					f.Name, f.Undefended.Runs, f.Defended.Runs)
			}
			if f.Role != RoleTamper && f.GoalRuns == 0 {
				t.Errorf("goal-bearing family %s recorded no goal runs", f.Name)
			}
		}
		if tc.Measured.Validate() != nil {
			t.Errorf("threat %s measured score out of range: %v", tc.ThreatID, tc.Measured)
		}
		if tc.Delta.Discoverability != 0 {
			t.Errorf("threat %s moved discoverability: %v", tc.ThreatID, tc.Delta)
		}
	}
	if families != len(out.Report.Families) {
		t.Errorf("profile covers %d families, report has %d", families, len(out.Report.Families))
	}
	// Ranking invariant: residual non-increasing.
	for i := 1; i < len(p.Threats); i++ {
		if p.Threats[i].Residual > p.Threats[i-1].Residual {
			t.Errorf("residual ranking broken at %d: %f > %f",
				i, p.Threats[i].Residual, p.Threats[i-1].Residual)
		}
	}
}

// TestCalibrateBands pins the evidence → delta banding on synthetic
// summaries, the contract DESIGN.md §8 documents.
func TestCalibrateBands(t *testing.T) {
	sum := func(runs, succ, blocked int) attack.Summary {
		return attack.Summary{Runs: runs, Succeeded: succ, Blocked: blocked}
	}
	cases := []struct {
		name                        string
		undef, def                  attack.Summary
		goalRuns, goalHits, defHits int
		want                        Delta
	}{
		{"fully blocked, always lands undefended",
			sum(10, 10, 0), sum(10, 0, 10), 0, 0, 0,
			Delta{Reproducibility: 1, Exploitability: -2, AffectedUsers: -2}},
		{"defence leaks half",
			sum(10, 10, 0), sum(10, 5, 5), 0, 0, 0,
			Delta{Reproducibility: 1, Exploitability: 2, AffectedUsers: -1}},
		{"defence leaks a little",
			sum(10, 10, 0), sum(10, 1, 9), 0, 0, 0,
			Delta{Reproducibility: 1, Exploitability: 1, AffectedUsers: -1}},
		{"never lands even undefended",
			sum(10, 0, 10), sum(10, 0, 10), 0, 0, 0,
			Delta{Reproducibility: -2, Exploitability: -2, AffectedUsers: -2}},
		{"goal hit under defence raises damage",
			sum(10, 10, 0), sum(10, 2, 8), 20, 12, 2,
			Delta{Reproducibility: 1, Exploitability: 1, AffectedUsers: -1, Damage: 1}},
		{"goal never materialises lowers damage",
			sum(10, 10, 0), sum(10, 0, 10), 20, 0, 0,
			Delta{Reproducibility: 1, Exploitability: -2, AffectedUsers: -2, Damage: -1}},
		{"no defended evidence leaves exploitability alone",
			sum(10, 10, 0), attack.Summary{}, 0, 0, 0,
			Delta{Reproducibility: 1, AffectedUsers: 1}},
		{"blocked with false positives is not a clean block",
			sum(10, 10, 0), attack.Summary{Runs: 10, FalsePositives: 10}, 0, 0, 0,
			Delta{Reproducibility: 1, Exploitability: -1, AffectedUsers: -2}},
	}
	for _, c := range cases {
		got := deltaFrom(c.undef, c.def, c.goalRuns, c.goalHits, c.defHits)
		if got != c.want {
			t.Errorf("%s: delta = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCalibrateRejectsForeignReports: a report that was not produced by a
// synthesized campaign must be refused, not misattributed.
func TestCalibrateRejectsForeignReports(t *testing.T) {
	a := analysis(t)
	for _, rep := range []*campaign.CampaignReport{
		{Campaign: "x", Families: []campaign.FamilyReport{{Name: "spot", Kind: campaign.KindMutate}}},
		{Campaign: "x", Families: []campaign.FamilyReport{{Name: "tamper-NOPE-9", Kind: campaign.KindMutate}}},
		{Campaign: "x", Families: []campaign.FamilyReport{{Name: "tamper-" + car.ThreatEPSDeactivate, Kind: campaign.KindFlood}}},
		{Campaign: "x"},
	} {
		if _, err := Calibrate(a, rep); err == nil {
			t.Errorf("foreign report %v accepted", rep.Families)
		}
	}
}

// TestParseSpec checks the JSON run-spec branch: defaults, unknown models,
// unknown fields and range errors.
func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec(`{"model":"connected-car","fleet":4,"flood_rate":"150us"}`)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Fleet != 4 || sp.Model != "connected-car" {
		t.Errorf("spec = %+v", sp)
	}
	for _, bad := range []string{
		`{"model":"unknown-model"}`,
		`{"model":"connected-car","fleet":-1}`,
		`{"model":"connected-car","flood_frames":-2}`,
		`{"model":"connected-car","surprise":1}`,
		`{`,
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("bad spec accepted: %s", bad)
		}
	}
}

// TestRunSpecOverrides: a spec's own fleet/root-seed pin the profile; the
// caller's values only fill gaps.
func TestRunSpecOverrides(t *testing.T) {
	sp := &Spec{Model: "connected-car", Threats: []string{car.ThreatInfoStatusMod}, Fleet: 2, RootSeed: 7}
	out, err := Run(sp, campaign.SweepConfig{Fleet: 9, RootSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.Fleet != 2 || out.Report.RootSeed != 7 {
		t.Errorf("spec values lost: fleet=%d root=%d", out.Report.Fleet, out.Report.RootSeed)
	}
	sp2 := &Spec{Model: "connected-car", Threats: []string{car.ThreatInfoStatusMod}}
	out2, err := Run(sp2, campaign.SweepConfig{Fleet: 3, RootSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Report.Fleet != 3 || out2.Report.RootSeed != 99 {
		t.Errorf("caller fallbacks lost: fleet=%d root=%d", out2.Report.Fleet, out2.Report.RootSeed)
	}
}
