package report

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/risk"
)

// -update regenerates the golden files from the current rendering:
//
//	go test ./internal/report -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares a rendering against its checked-in golden file. The
// inputs are deterministic sweeps, so the comparison is full-table and
// byte-exact — a rendering change (column, width, rounding) must show up as
// a reviewed golden diff, not silently.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/report -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s--- want ---\n%s(regenerate with -update if the change is intended)",
			name, got, want)
	}
}

// goldenCampaignReport sweeps a fixed campaign covering all three generator
// kinds, stage counters and a regime override — every column CampaignView
// can populate.
func goldenCampaignReport(t *testing.T) *campaign.CampaignReport {
	t.Helper()
	plan, err := (campaign.Compiler{}).Compile(mustParseSpec(`
campaign "golden" version 3 {
  seed 11
  regimes none, hpe
  mutate "spot" { pick 2 }
  flood "burst" {
    regimes hpe, behaviour
    id 0x300
    payload EE01
    team Telematics
    rates 300us
    frames 30
    threshold 9
  }
  staged "chain" {
    attackers Infotainment
    goal firmware-modified
    stage "inject" { inject 0x10 01 x 2 }
    stage "persist" { proceed propulsion-off inject 0x600 DEAD }
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Sweep(plan, campaign.SweepConfig{Fleet: 4, RootSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenCampaignView pins the full CampaignView table against testdata.
func TestGoldenCampaignView(t *testing.T) {
	checkGolden(t, "campaign_view.golden", CampaignView(goldenCampaignReport(t)))
}

// TestGoldenRiskView pins the full RiskView rendering — ranked residual
// table plus per-family evidence — against testdata, through the whole
// synthesize → sweep → calibrate pipeline on a three-threat model slice.
func TestGoldenRiskView(t *testing.T) {
	out, err := risk.Run(&risk.Spec{
		Model:    "connected-car",
		Seed:     42,
		RootSeed: 42,
		Threats:  []string{"CONN-1", "EVECU-3", "INFO-2"},
	}, campaign.SweepConfig{Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "risk_view.golden", RiskView(out.Profile))
}
