package engine_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

func TestVINMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 7, 999999, 1000000, 123456789} {
		if got, want := engine.VIN(i), fmt.Sprintf("VIN-%06d", i); got != want {
			t.Errorf("VIN(%d) = %q, want %q", i, got, want)
		}
	}
}

// stampConfig is a small multi-group sweep with the MAC probe on, so a
// stamp carries every section it can: group aggregates, their fold, MAC
// counts and (error-free) live counters.
func stampConfig(workers, offset int, errorRate float64) engine.Config {
	all := attack.Scenarios()
	return engine.Config{
		Fleet:       9,
		Workers:     workers,
		IndexOffset: offset,
		Groups: []engine.ScenarioGroup{
			{Name: "alpha", Scenarios: all[:3], Regimes: []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE}, RootSeed: 0xA11CE},
			{Name: "bravo", Scenarios: all[3:5], Regimes: []attack.Enforcement{attack.EnforceHPE, attack.EnforceBehaviour}, RootSeed: 0xB0B},
		},
		TrafficHorizon: 5 * time.Millisecond,
		ErrorRate:      errorRate,
	}
}

// shares reports whether two vehicles' attack sections point at the same
// backing arrays — i.e. whether b was stamped from a.
func shares(a, b *engine.VehicleReport) bool {
	return &a.Groups[0] == &b.Groups[0] && &a.Groups[0][0] == &b.Groups[0][0] && &a.Attacks[0] == &b.Attacks[0]
}

// TestStampedVehiclesMatchOracle is the engine-level check of the stamp's
// seed-invariance premise: in batched runs, a seeded sample of stamped
// vehicles must each equal its own single-vehicle oracle re-execution,
// whatever the worker count, shard offset or bus error rate.
func TestStampedVehiclesMatchOracle(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, offset := range []int{0, 37} {
			for _, rate := range []float64{0, 0.02} {
				cfg := stampConfig(workers, offset, rate)
				fr, err := engine.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 3; k++ {
					i := 1 + int(engine.VehicleSeed(uint64(workers), k)%uint64(cfg.Fleet-1))
					name := fmt.Sprintf("workers=%d offset=%d rate=%v vehicle=%d", workers, offset, rate, offset+i)
					if !shares(&fr.Vehicles[0], &fr.Vehicles[i]) {
						t.Errorf("%s: not stamped from the first vehicle", name)
					}
					one := cfg
					one.Fleet, one.IndexOffset, one.Workers, one.NoBatch = 1, offset+i, 1, true
					want, err := engine.Run(one)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if !reflect.DeepEqual(fr.Vehicles[i], want.Vehicles[0]) {
						t.Errorf("%s: stamped report differs from its oracle re-execution:\nstamped: %+v\noracle:  %+v",
							name, fr.Vehicles[i], want.Vehicles[0])
					}
				}
			}
		}
	}
}

// TestStampReadOnlyThroughConsumers shows no consumer writes through the
// stamp's shared slices: after the streaming merge, a wire round trip and
// the fleet report render, the first vehicle's attack section — the
// backing arrays every stamped vehicle points at — is unchanged.
func TestStampReadOnlyThroughConsumers(t *testing.T) {
	cfg := stampConfig(2, 0, 0)
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := &fr.Vehicles[0]
	groups := make([][]attack.RegimeSummary, len(first.Groups))
	for gi, g := range first.Groups {
		groups[gi] = append([]attack.RegimeSummary(nil), g...)
	}
	attacks := append([]attack.RegimeSummary(nil), first.Attacks...)

	fold, err := engine.NewMergeFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := range fr.Vehicles {
		fold.Add(fr.Vehicles[i])
		if err := w.WriteVehicle(&fr.Vehicles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteTrailer(wire.Trailer{Count: len(fr.Vehicles)}); err != nil {
		t.Fatal(err)
	}
	merged := fold.Finish()
	r := wire.NewReader(&buf)
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	_ = merged.String()
	_ = fr.String()

	if !reflect.DeepEqual(first.Groups, groups) || !reflect.DeepEqual(first.Attacks, attacks) {
		t.Errorf("stamp changed under its consumers:\ngroups:  %+v, want %+v\nattacks: %+v, want %+v",
			first.Groups, groups, first.Attacks, attacks)
	}
	if !reflect.DeepEqual(merged.Groups, fr.Groups) {
		t.Error("streaming merge differs from the engine's merge")
	}
}
