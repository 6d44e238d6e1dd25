package engine

import (
	"testing"
	"time"

	"repro/internal/attack"
)

// tableGroup is a one-group sweep of the given Table I scenarios under the
// paper's baseline-vs-defence regimes, the shape of carsim's fleet mode.
func tableGroup(root uint64, scenarios []attack.Scenario) []ScenarioGroup {
	return []ScenarioGroup{{
		Scenarios: scenarios,
		Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
		RootSeed:  root,
	}}
}

// quickConfig keeps unit-test runs fast: a small scenario slice and a short
// traffic horizon.
func quickConfig(fleetSize, workers int) Config {
	return Config{
		Fleet:          fleetSize,
		Workers:        workers,
		Groups:         tableGroup(0xC0FFEE, attack.Scenarios()[:3]),
		TrafficHorizon: 10 * time.Millisecond,
	}
}

func TestVehicleSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := VehicleSeed(42, i)
		if s != VehicleSeed(42, i) {
			t.Fatalf("VehicleSeed(42, %d) unstable", i)
		}
		if seen[s] {
			t.Fatalf("VehicleSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if VehicleSeed(1, 0) == VehicleSeed(2, 0) {
		t.Error("different roots produced the same vehicle seed")
	}
}

func TestRunSingleVehicle(t *testing.T) {
	r, err := Run(quickConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vehicles) != 1 {
		t.Fatalf("vehicles = %d, want 1", len(r.Vehicles))
	}
	v := r.Vehicles[0]
	if v.FramesDelivered == 0 {
		t.Error("background simulation delivered no frames")
	}
	if v.Utilisation <= 0 {
		t.Error("background simulation reports zero bus utilisation")
	}
	if v.MACChecks == 0 || v.MACAllowed == 0 {
		t.Errorf("MAC probe checks=%d allowed=%d, want both > 0", v.MACChecks, v.MACAllowed)
	}
	// The spoof probe (infotainment -> ECU command) must be denied.
	if v.MACAllowed >= v.MACChecks {
		t.Errorf("MAC probe allowed %d of %d checks; the spoof probe should be denied",
			v.MACAllowed, v.MACChecks)
	}
	if len(v.Attacks) != 2 {
		t.Fatalf("attack regimes = %d, want 2", len(v.Attacks))
	}
	if v.Attacks[0].Summary.SuccessRate() != 1.0 {
		t.Errorf("unenforced success rate = %v, want 1.0", v.Attacks[0].Summary.SuccessRate())
	}
	if v.Attacks[1].Summary.BlockRate() != 1.0 {
		t.Errorf("HPE block rate = %v, want 1.0", v.Attacks[1].Summary.BlockRate())
	}
}

func TestRunMergesVehicleOrderIndependentOfWorkers(t *testing.T) {
	serial, err := Run(quickConfig(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(quickConfig(12, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Vehicles {
		if serial.Vehicles[i].Index != i || parallel.Vehicles[i].Index != i {
			t.Fatalf("vehicle %d out of order", i)
		}
	}
	// Worker count is part of the report header; normalise it before the
	// byte comparison so only the merged simulation output is compared.
	parallel.Workers = serial.Workers
	if serial.String() != parallel.String() {
		t.Error("fleet report depends on worker count")
	}
}

// TestRunDeterministic100Vehicles8Workers is the PR's acceptance criterion:
// engine.Run with 100 vehicles on 8 workers produces byte-identical
// aggregate reports across two runs with the same root seed.
func TestRunDeterministic100Vehicles8Workers(t *testing.T) {
	if testing.Short() {
		t.Skip("100-vehicle sweep in -short mode")
	}
	cfg := quickConfig(100, 8)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two runs with the same root seed rendered different fleet reports")
	}
	if a.Fleet != 100 || a.Workers != 8 {
		t.Fatalf("config echo fleet=%d workers=%d", a.Fleet, a.Workers)
	}
	// Fleet-wide aggregates must equal the fold of per-vehicle reports.
	var delivered uint64
	for _, v := range a.Vehicles {
		delivered += v.FramesDelivered
	}
	if delivered != a.FramesDelivered {
		t.Errorf("merged FramesDelivered %d != vehicle sum %d", a.FramesDelivered, delivered)
	}
	if got := a.Attacks[0].Summary.Runs; got != 100*3 {
		t.Errorf("unenforced runs = %d, want 300", got)
	}
}
