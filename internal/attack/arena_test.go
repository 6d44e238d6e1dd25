package attack

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/car"
)

// TestArenaMatchesFreshRuns sweeps the full Table I matrix twice — once on
// the pooled arena, once on fresh cars — and requires every Result to be
// identical. This is the harness-level half of the zero-rebuild contract:
// a reset vehicle is indistinguishable from a new one.
func TestArenaMatchesFreshRuns(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	arena, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()
	regimes := []Enforcement{EnforceNone, EnforceSoftware, EnforceHPE}

	pooled, err := runMatrix(scenarios, regimes, arena.Run)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := h.RunMatrix(scenarios, regimes...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled.Results) != len(fresh.Results) {
		t.Fatalf("pooled ran %d cells, fresh %d", len(pooled.Results), len(fresh.Results))
	}
	for i := range fresh.Results {
		if !reflect.DeepEqual(pooled.Results[i], fresh.Results[i]) {
			t.Errorf("cell %d diverged:\npooled %+v\nfresh  %+v",
				i, pooled.Results[i], fresh.Results[i])
		}
	}
	if !reflect.DeepEqual(pooled.Regimes, fresh.Regimes) {
		t.Errorf("regime summaries diverged:\npooled %+v\nfresh  %+v",
			pooled.Regimes, fresh.Regimes)
	}
}

// TestArenaRunsAreRepeatable runs the same matrix twice on one arena: the
// second pass (fully warmed pools) must reproduce the first exactly.
func TestArenaRunsAreRepeatable(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	arena, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()[:5]
	first, err := runMatrix(scenarios, []Enforcement{EnforceNone, EnforceHPE}, arena.Run)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runMatrix(scenarios, []Enforcement{EnforceNone, EnforceHPE}, arena.Run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second arena pass diverged from the first")
	}
}

// TestArenaStartLive checks the pooled live-sim provisioning matches a
// fresh car.New + hpe.Deploy stack, and that a later scenario run still
// resets cleanly.
func TestArenaStartLive(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	arena, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the arena with a scenario first.
	if _, err := arena.Run(Scenarios()[0], EnforceHPE); err != nil {
		t.Fatal(err)
	}
	c, err := arena.StartLive(car.Config{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	c.StartTraffic(time.Millisecond, 10*time.Millisecond, 88)
	c.Scheduler().Run()
	if c.Bus().Stats().FramesDelivered == 0 {
		t.Fatal("live sim delivered nothing")
	}
	// The provisioned engines must be enforcing: a forged ECU command from
	// compromised infotainment firmware is blocked at its write filter.
	before := c.Bus().Stats().WriteBlocked
	n, ok := c.Node(car.NodeInfotainment)
	if !ok {
		t.Fatal("infotainment node missing")
	}
	n.Controller().CompromiseFilters()
	if err := n.Send(canbus.MustDataFrame(car.IDECUCommand, []byte{car.OpDisable})); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.Bus().Stats().WriteBlocked == before {
		t.Error("pooled engines not enforcing after StartLive")
	}
}
