package fleet

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
)

func testBundle(t *testing.T, version int) *policy.Bundle {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	src := fmt.Sprintf(`policy "fleet" version %d { allow read 0x100 at ecu }`, version)
	b, err := policy.Sign(src, priv)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fakeFleet builds n vehicles; ids chosen so lexical order is stable.
// failing marks vehicle indices (in sorted order) that reject the update.
func fakeFleet(n int, failing map[int]bool) []Vehicle {
	out := make([]Vehicle, 0, n)
	for i := 0; i < n; i++ {
		i := i
		out = append(out, VehicleFunc{
			VID: fmt.Sprintf("VIN-%04d", i),
			Fn: func(*policy.Bundle) error {
				if failing[i] {
					return errors.New("verification failed")
				}
				return nil
			},
		})
	}
	return out
}

func TestPlanValidation(t *testing.T) {
	tests := []struct {
		name string
		plan Plan
		want error
	}{
		{"default ok", DefaultPlan(), nil},
		{"no stages", Plan{AbortThreshold: 0.1}, ErrNoStages},
		{"non increasing", Plan{Stages: []float64{0.5, 0.5, 1}, AbortThreshold: 0.1}, ErrStageRange},
		{"over one", Plan{Stages: []float64{0.5, 1.5}, AbortThreshold: 0.1}, ErrStageRange},
		{"zero stage", Plan{Stages: []float64{0, 1}, AbortThreshold: 0.1}, ErrStageRange},
		{"last not full", Plan{Stages: []float64{0.5, 0.9}, AbortThreshold: 0.1}, ErrLastStage},
		{"bad threshold", Plan{Stages: []float64{1}, AbortThreshold: 1}, ErrBadThreshold},
		{"negative threshold", Plan{Stages: []float64{1}, AbortThreshold: -0.1}, ErrBadThreshold},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.plan.Validate()
			if tt.want == nil && err != nil {
				t.Fatalf("Validate = %v", err)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("Validate = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestRolloutHappyPath(t *testing.T) {
	vehicles := fakeFleet(200, nil)
	r, err := Rollout(vehicles, testBundle(t, 2), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if r.Aborted {
		t.Fatal("clean rollout aborted")
	}
	if r.Applied != 200 || r.Failed != 0 {
		t.Fatalf("applied=%d failed=%d", r.Applied, r.Failed)
	}
	if r.BundleVersion != 2 {
		t.Errorf("version = %d", r.BundleVersion)
	}
	// Stage sizes follow the plan: 1%, 10%, 50%, 100% of 200.
	wantAttempts := []int{2, 18, 80, 100}
	if len(r.Stages) != 4 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	for i, s := range r.Stages {
		if s.Attempted != wantAttempts[i] {
			t.Errorf("stage %d attempted = %d, want %d", i, s.Attempted, wantAttempts[i])
		}
	}
}

func TestRolloutAbortsOnCanaryFailures(t *testing.T) {
	// All canary vehicles (first 2 of 200 in sorted order) fail.
	vehicles := fakeFleet(200, map[int]bool{0: true, 1: true})
	r, err := Rollout(vehicles, testBundle(t, 1), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aborted || r.AbortedAtStage != 0 {
		t.Fatalf("report = %+v", r)
	}
	if r.Applied != 0 || r.Failed != 2 {
		t.Errorf("applied=%d failed=%d", r.Applied, r.Failed)
	}
	if len(r.Stages) != 1 {
		t.Errorf("stages executed = %d, want 1 (abort before stage 2)", len(r.Stages))
	}
	if len(r.Stages[0].Failures) != 2 || r.Stages[0].Failures[0].VehicleID != "VIN-0000" {
		t.Errorf("failures = %+v", r.Stages[0].Failures)
	}
}

func TestRolloutToleratesFailuresBelowThreshold(t *testing.T) {
	// 2 failures inside the 50% stage of 200 vehicles: stage rate 2/80 =
	// 2.5% < 5% threshold, so the rollout completes.
	vehicles := fakeFleet(200, map[int]bool{50: true, 60: true})
	r, err := Rollout(vehicles, testBundle(t, 1), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if r.Aborted {
		t.Fatalf("aborted despite sub-threshold failures: %+v", r)
	}
	if r.Applied != 198 || r.Failed != 2 {
		t.Errorf("applied=%d failed=%d", r.Applied, r.Failed)
	}
}

func TestRolloutTinyFleet(t *testing.T) {
	// With 3 vehicles the 1% and 10% stages are empty; everyone updates in
	// later stages and nobody is skipped or hit twice. Each vehicle counts
	// into its own slot, so parallel stage workers share no state.
	applied := make([]int, 3)
	var vehicles []Vehicle
	for i := range applied {
		vehicles = append(vehicles, VehicleFunc{VID: fmt.Sprintf("V-%d", i), Fn: func(*policy.Bundle) error {
			applied[i]++
			return nil
		}})
	}
	r, err := Rollout(vehicles, testBundle(t, 1), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if r.Applied != 3 {
		t.Fatalf("applied = %d", r.Applied)
	}
	for i, n := range applied {
		if n != 1 {
			t.Errorf("vehicle V-%d updated %d times", i, n)
		}
	}
}

func TestRolloutSingleStage(t *testing.T) {
	vehicles := fakeFleet(10, map[int]bool{3: true})
	r, err := Rollout(vehicles, testBundle(t, 1), Plan{Stages: []float64{1.0}, AbortThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Applied != 9 || r.Failed != 1 || r.Aborted {
		t.Errorf("report = %+v", r)
	}
}

func TestRolloutRejectsBadInput(t *testing.T) {
	if _, err := Rollout(fakeFleet(1, nil), nil, DefaultPlan()); err == nil {
		t.Error("nil bundle accepted")
	}
	if _, err := Rollout(fakeFleet(1, nil), testBundle(t, 1), Plan{}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestReportString(t *testing.T) {
	vehicles := fakeFleet(100, map[int]bool{0: true})
	r, err := Rollout(vehicles, testBundle(t, 7), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	if !strings.Contains(out, "rollout of policy v7") || !strings.Contains(out, "ABORTED") {
		t.Errorf("rendering = %q", out)
	}
}

func TestRolloutDeterministicOrder(t *testing.T) {
	// With one worker, vehicles are attempted in ID order regardless of
	// input order.
	var order []string
	mk := func(id string) Vehicle {
		return VehicleFunc{VID: id, Fn: func(*policy.Bundle) error {
			order = append(order, id)
			return nil
		}}
	}
	vehicles := []Vehicle{mk("C"), mk("A"), mk("B")}
	if _, err := Rollout(vehicles, testBundle(t, 1), Plan{Stages: []float64{1}, AbortThreshold: 0.1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "A" || order[1] != "B" || order[2] != "C" {
		t.Errorf("order = %v", order)
	}

	// With parallel workers the attempt order is unspecified, but the report
	// folds outcomes in ID order: every vehicle fails with its own error,
	// and the stage lists the failures A, B, C.
	fail := func(id string) Vehicle {
		return VehicleFunc{VID: id, Fn: func(*policy.Bundle) error { return errors.New(id) }}
	}
	r, err := Rollout([]Vehicle{fail("C"), fail("A"), fail("B")}, testBundle(t, 1),
		Plan{Stages: []float64{1}, AbortThreshold: 0.1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range r.Stages[0].Failures {
		if f.VehicleID != f.Err.Error() {
			t.Errorf("failure %s carries %v", f.VehicleID, f.Err)
		}
		got = append(got, f.VehicleID)
	}
	if strings.Join(got, ",") != "A,B,C" {
		t.Errorf("failure order = %v, want [A B C]", got)
	}
}

func TestRolloutTinyFleetEmptyEarlyStages(t *testing.T) {
	// With 3 vehicles a 1% and a 10% canary stage both truncate to zero
	// vehicles: they must be recorded as empty, never attempted, and never
	// count toward abort decisions.
	vehicles := fakeFleet(3, nil)
	r, err := Rollout(vehicles, testBundle(t, 2), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != 4 {
		t.Fatalf("stages recorded = %d, want 4", len(r.Stages))
	}
	for _, s := range r.Stages[:2] {
		if s.Attempted != 0 || s.Applied != 0 || s.Failed != 0 {
			t.Errorf("stage %d on tiny fleet attempted=%d applied=%d failed=%d, want all 0",
				s.Stage, s.Attempted, s.Applied, s.Failed)
		}
		if rate := s.FailureRate(); rate != 0 {
			t.Errorf("empty stage %d failure rate = %v, want 0", s.Stage, rate)
		}
	}
	if r.Applied != 3 || r.Failed != 0 {
		t.Errorf("totals applied=%d failed=%d, want 3/0", r.Applied, r.Failed)
	}
	if r.Aborted {
		t.Error("tiny fleet rollout aborted")
	}
}

func TestRolloutFailureRateEqualToThresholdDoesNotAbort(t *testing.T) {
	// 100 vehicles in a single stage with exactly 5 failures: the rate
	// equals the 5% threshold and the check is strictly >, so the rollout
	// must complete.
	failing := map[int]bool{3: true, 17: true, 42: true, 77: true, 99: true}
	vehicles := fakeFleet(100, failing)
	plan := Plan{Stages: []float64{1.0}, AbortThreshold: 0.05}
	r, err := Rollout(vehicles, testBundle(t, 2), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stages[0].FailureRate(); got != 0.05 {
		t.Fatalf("stage failure rate = %v, want exactly 0.05", got)
	}
	if r.Aborted {
		t.Error("rollout aborted at failure rate == AbortThreshold; abort must require strictly greater")
	}
	// One failure more must tip it.
	failing[50] = true
	r2, err := Rollout(fakeFleet(100, failing), testBundle(t, 2), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Aborted {
		t.Error("rollout with failure rate above threshold did not abort")
	}
}

func TestRolloutReportTotalInvariants(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Spare the 1-vehicle canary stage (index 0) so no stage's
			// failure rate crosses the threshold and every stage runs.
			failing := map[int]bool{}
			for i := 20; i < 137; i += 11 {
				failing[i] = true
			}
			plan := DefaultPlan()
			plan.AbortThreshold = 0.5 // let every stage run
			plan.Workers = workers
			r, err := Rollout(fakeFleet(137, failing), testBundle(t, 2), plan)
			if err != nil {
				t.Fatal(err)
			}
			attempted, applied, failed, failures := 0, 0, 0, 0
			for _, s := range r.Stages {
				attempted += s.Attempted
				applied += s.Applied
				failed += s.Failed
				failures += len(s.Failures)
				if s.Applied+s.Failed != s.Attempted {
					t.Errorf("stage %d: applied %d + failed %d != attempted %d",
						s.Stage, s.Applied, s.Failed, s.Attempted)
				}
			}
			if r.Applied+r.Failed != attempted {
				t.Errorf("Applied %d + Failed %d != sum(Attempted) %d", r.Applied, r.Failed, attempted)
			}
			if r.Applied != applied || r.Failed != failed {
				t.Errorf("report totals %d/%d != stage sums %d/%d", r.Applied, r.Failed, applied, failed)
			}
			if failures != failed {
				t.Errorf("recorded failure entries %d != failed count %d", failures, failed)
			}
			if attempted != 137 {
				t.Errorf("attempted %d vehicles, want all 137", attempted)
			}
		})
	}
}

func TestRolloutParallelMatchesSerialReport(t *testing.T) {
	failing := map[int]bool{5: true, 40: true, 41: true, 90: true}
	mk := func(workers int) Report {
		plan := DefaultPlan()
		plan.AbortThreshold = 0.2
		plan.Workers = workers
		r, err := Rollout(fakeFleet(120, failing), testBundle(t, 2), plan)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, parallel := mk(1), mk(8)
	if serial.String() != parallel.String() {
		t.Errorf("parallel rollout report differs from serial:\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
}

func TestRolloutRejectsDuplicateIDs(t *testing.T) {
	vehicles := fakeFleet(5, nil)
	vehicles = append(vehicles, VehicleFunc{VID: "VIN-0002", Fn: func(*policy.Bundle) error { return nil }})
	_, err := Rollout(vehicles, testBundle(t, 1), DefaultPlan())
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate ID accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "VIN-0002") {
		t.Errorf("error does not name the colliding VIN: %v", err)
	}
}

func TestRolloutStageBoundariesRounded(t *testing.T) {
	// Cohort boundaries are the ROUNDED cumulative fractions, not truncated:
	// int(frac*total) suffers float artifacts (0.7*10 == 6.999...) and
	// truncation bias on half-cohorts. Expectations are the exact
	// math.Round(frac*total) values under DefaultPlan {1%, 10%, 50%, 100%}.
	cases := []struct {
		total      int
		boundaries []int // cumulative vehicles after each stage
	}{
		{1, []int{0, 0, 1, 1}},
		{3, []int{0, 0, 2, 3}},
		{10, []int{0, 1, 5, 10}},
		{55, []int{1, 6, 28, 55}}, // 0.55->1, 5.5->6, 27.5->28: round half away from zero
		{1_000_000, []int{10_000, 100_000, 500_000, 1_000_000}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("total=%d", tc.total), func(t *testing.T) {
			r, err := Rollout(fakeFleet(tc.total, nil), testBundle(t, 1), DefaultPlan())
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Stages) != len(tc.boundaries) {
				t.Fatalf("stages = %d, want %d", len(r.Stages), len(tc.boundaries))
			}
			cum := 0
			for i, s := range r.Stages {
				cum += s.Attempted
				if cum != tc.boundaries[i] {
					t.Errorf("after stage %d: %d vehicles updated, want %d", i, cum, tc.boundaries[i])
				}
			}
			if r.Applied != tc.total {
				t.Errorf("applied = %d, want the whole fleet (%d)", r.Applied, tc.total)
			}
		})
	}
}

func TestRolloutGateVeto(t *testing.T) {
	// The gate fires once per non-empty stage that clears the threshold; a
	// veto aborts like a threshold breach and lands verbatim in the report.
	var gated []int
	plan := DefaultPlan()
	plan.Gate = func(s StageReport) error {
		gated = append(gated, s.Stage)
		if s.Stage == 2 {
			return errors.New("canary evidence regressed")
		}
		return nil
	}
	r, err := Rollout(fakeFleet(200, nil), testBundle(t, 3), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aborted || r.AbortedAtStage != 2 {
		t.Fatalf("gate veto did not abort at stage 2: %+v", r)
	}
	if r.GateVeto != "canary evidence regressed" {
		t.Errorf("GateVeto = %q", r.GateVeto)
	}
	if len(gated) != 3 || gated[0] != 0 || gated[2] != 2 {
		t.Errorf("gate consulted for stages %v, want [0 1 2]", gated)
	}
	if !strings.Contains(r.String(), "(gate: canary evidence regressed)") {
		t.Errorf("rendering lacks the veto: %q", r.String())
	}
}

func TestRolloutGateSkippedForEmptyAndAbortedStages(t *testing.T) {
	var gated []int
	plan := DefaultPlan()
	plan.Gate = func(s StageReport) error {
		gated = append(gated, s.Stage)
		return nil
	}
	// 3 vehicles: stages 0 and 1 are empty — the gate must not see them.
	if _, err := Rollout(fakeFleet(3, nil), testBundle(t, 1), plan); err != nil {
		t.Fatal(err)
	}
	if len(gated) != 2 || gated[0] != 2 || gated[1] != 3 {
		t.Fatalf("gate consulted for stages %v, want [2 3]", gated)
	}
	// A stage that breaches the threshold aborts before its gate runs.
	gated = nil
	r, err := Rollout(fakeFleet(200, map[int]bool{0: true, 1: true}), testBundle(t, 1), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aborted || r.GateVeto != "" {
		t.Fatalf("report = %+v", r)
	}
	if len(gated) != 0 {
		t.Errorf("gate consulted after threshold abort: stages %v", gated)
	}
}
