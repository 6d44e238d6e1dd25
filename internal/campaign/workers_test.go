package campaign_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
)

// TestQuickstartByteIdenticalAcrossWorkers pins the parallel vehicle-0
// matrix against the one-worker walk on the shipped quickstart campaign
// (6 groups, 70 plan units): the rendered report and the Health ledger
// must not change with the worker count, at both fleet sizes, with and
// without bus errors, unsharded and over in-process shards (each range
// executes its own first vehicle). One worker walks the units in plan
// order on one goroutine; two, three and eight split them between
// goroutines and arenas.
func TestQuickstartByteIdenticalAcrossWorkers(t *testing.T) {
	src, err := os.ReadFile("../../examples/campaigns/quickstart.campaign")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, fleet := range []int{2, 64} {
		for _, rate := range []float64{0, 0.02} {
			for _, shards := range []int{0, 3} {
				var base *campaign.CampaignReport
				var baseView string
				for _, workers := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("fleet=%d/rate=%v/shards=%d/workers=%d", fleet, rate, shards, workers)
					rep, err := campaign.Sweep(plan, campaign.SweepConfig{
						Fleet: fleet, Workers: workers, RootSeed: 4242,
						ErrorRate: rate, Shards: shards,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					view := report.CampaignView(rep)
					if base == nil {
						base, baseView = rep, view
						if !rep.Health.IsZero() {
							t.Fatalf("%s: a fault-free sweep booked %+v", name, rep.Health)
						}
						continue
					}
					if view != baseView {
						t.Errorf("%s: report differs from workers=1:\n--- workers=1\n%s--- %s\n%s", name, baseView, name, view)
					}
					if rep.Health != base.Health || rep.HealthEnabled != base.HealthEnabled {
						t.Errorf("%s: health %+v (enabled %v), want %+v (enabled %v)",
							name, rep.Health, rep.HealthEnabled, base.Health, base.HealthEnabled)
					}
				}
			}
		}
	}
}
