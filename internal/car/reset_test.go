package car

import (
	"testing"
	"time"

	"repro/internal/canbus"
)

// driveScenario runs a deterministic mixed workload — traffic, legitimate
// actions, a crash — and returns the observable outcome.
func driveScenario(t *testing.T, c *Car) (State, canbus.BusStats, uint64) {
	t.Helper()
	c.StartTraffic(time.Millisecond, 8*time.Millisecond, 77)
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	if err := c.ArmAlarm(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().RunUntil(4 * time.Millisecond)
	if err := c.TriggerCrash(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	return c.State(), c.Bus().Stats(), c.Scheduler().Steps()
}

// TestCarResetEquivalence dirties a car the way a harness run does, resets
// it, and checks the next scenario plays out exactly as on a fresh car.
func TestCarResetEquivalence(t *testing.T) {
	cfg := Config{Seed: 99, ErrorRate: 0.05}
	used := MustNew(cfg)

	// Dirty phase: rogue node, compromised firmware, mode switch, traffic.
	rogue, err := used.Bus().Attach("rogue")
	if err != nil {
		t.Fatal(err)
	}
	_ = rogue.Send(canbus.MustDataFrame(IDECUCommand, []byte{OpDisable}))
	if n, ok := used.Node(NodeEVECU); ok {
		n.Controller().CompromiseFilters()
		n.Controller().SetFilters()
	}
	used.SetMode(ModeFailSafe)
	used.StartTraffic(time.Millisecond, 5*time.Millisecond, 130)
	used.Scheduler().Run()
	if used.State() == initialState() {
		t.Fatal("dirty phase did not change observable state")
	}

	used.Reset(cfg)
	if used.State() != initialState() {
		t.Fatalf("state after reset: %+v", used.State())
	}
	if used.Mode() != ModeNormal {
		t.Fatalf("mode after reset: %v", used.Mode())
	}
	if _, ok := used.Node("rogue"); ok {
		t.Fatal("rogue node survived reset")
	}

	gotState, gotStats, gotSteps := driveScenario(t, used)
	fresh := MustNew(cfg)
	wantState, wantStats, wantSteps := driveScenario(t, fresh)

	if gotState != wantState {
		t.Errorf("state after reset %+v, fresh %+v", gotState, wantState)
	}
	if gotStats != wantStats {
		t.Errorf("bus stats after reset %+v, fresh %+v", gotStats, wantStats)
	}
	if gotSteps != wantSteps {
		t.Errorf("scheduler steps %d, fresh %d", gotSteps, wantSteps)
	}
}

// TestCarResetReconfigures checks a reset can change seed and error rate,
// matching a fresh car built with the new config.
func TestCarResetReconfigures(t *testing.T) {
	used := MustNew(Config{Seed: 1})
	driveScenario(t, used)

	next := Config{Seed: 1234, ErrorRate: 0.2}
	used.Reset(next)
	gotState, gotStats, _ := driveScenario(t, used)
	fresh := MustNew(next)
	wantState, wantStats, _ := driveScenario(t, fresh)
	if gotState != wantState || gotStats != wantStats {
		t.Errorf("reconfigured reset diverged: %+v/%+v vs %+v/%+v",
			gotState, gotStats, wantState, wantStats)
	}
	if gotStats.Errors == 0 {
		t.Error("reconfigured error rate produced no bus errors; reseed not applied")
	}
}
