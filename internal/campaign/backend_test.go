package campaign

import (
	"reflect"
	"testing"

	"repro/internal/policy/ir"
)

// TestSweepBackendEquivalence is the campaign-level face of the backend
// differential contract: because every policy backend is decision-equivalent,
// sweeping the same plan under each must produce an identical campaign
// report — same block rates, same goal hits, same per-family tables.
func TestSweepBackendEquivalence(t *testing.T) {
	plan := determinismPlan(t)
	base, err := Sweep(plan, SweepConfig{Fleet: 4, Workers: 2, RootSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range ir.Names() {
		rep, err := Sweep(plan, SweepConfig{Fleet: 4, Workers: 2, RootSeed: 7, PolicyBackend: backend})
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if !reflect.DeepEqual(rep, base) {
			t.Errorf("backend %s report differs from default:\n--- default\n%+v\n--- %s\n%+v",
				backend, base, backend, rep)
		}
	}
}
