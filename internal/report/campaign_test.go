package report

import (
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestCampaignViewRendering sweeps a minimal campaign and checks the view
// carries every family, regime and total — and leaks nothing that would
// break the report's cross-worker byte-identity (worker counts, timings).
func TestCampaignViewRendering(t *testing.T) {
	plan, err := (campaign.Compiler{}).Compile(mustParseSpec(`
campaign "view" version 1 {
  seed 5
  regimes none, hpe
  mutate "spot" { pick 2 probe off }
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
	rep, err := campaign.Sweep(plan, campaign.SweepConfig{Fleet: 2, Workers: 2, RootSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	out := CampaignView(rep)
	for _, want := range []string{
		`Campaign "view" v1`, "spot", "chain", "TOTAL",
		"none", "hpe", "staged", "mutate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("view missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "worker") {
		t.Errorf("view leaks worker configuration:\n%s", out)
	}
	// Same sweep, different worker count: identical rendering.
	rep2, err := campaign.Sweep(plan, campaign.SweepConfig{Fleet: 2, Workers: 1, RootSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if CampaignView(rep2) != out {
		t.Error("campaign view differs across worker counts")
	}
}

// mustParseSpec is campaign.Parse for the static specs of these tests; it
// panics on error.
func mustParseSpec(src string) *campaign.Spec {
	sp, err := campaign.Parse(src)
	if err != nil {
		panic(err)
	}
	return sp
}
