package engine

import (
	"testing"

	"repro/internal/attack"
)

// TestSkipPhasesMatchAcrossPaths: the campaign fast path (shared harness,
// no MAC probe) must behave identically on pooled arenas and on the
// fresh-construction NoBatch oracle, and must actually zero the skipped
// probe's counters.
func TestSkipPhasesMatchAcrossPaths(t *testing.T) {
	h, err := attack.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pooledTestConfig(4)
	cfg.Harness = h
	cfg.SkipMAC = true

	pooled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoBatch = true
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.String() != fresh.String() {
		t.Errorf("skip-phase runs diverged:\n--- pooled\n%s--- fresh\n%s", pooled, fresh)
	}
	if pooled.MACChecks != 0 {
		t.Errorf("skipped MAC probe still reported %d checks", pooled.MACChecks)
	}
	if pooled.Attacks[1].Summary.Runs == 0 {
		t.Error("attack matrix did not run")
	}
}

// TestSharedHarnessMatchesSelfBuilt: supplying a pre-built harness must not
// change the report relative to the engine deriving its own.
func TestSharedHarnessMatchesSelfBuilt(t *testing.T) {
	cfg := pooledTestConfig(2)
	own, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := attack.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Harness = h
	shared, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if own.String() != shared.String() {
		t.Error("shared-harness run diverged from self-built harness run")
	}
}
