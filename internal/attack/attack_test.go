package attack

import (
	"testing"

	"repro/internal/canbus"
	"repro/internal/car"
)

func harness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestScenarioCoverage(t *testing.T) {
	// One executable scenario per Table I threat, matching IDs exactly.
	scs := Scenarios()
	if len(scs) != len(car.TableRowOrder) {
		t.Fatalf("%d scenarios for %d table rows", len(scs), len(car.TableRowOrder))
	}
	byID := map[string]Scenario{}
	for _, sc := range scs {
		if _, dup := byID[sc.ThreatID]; dup {
			t.Errorf("duplicate scenario for %s", sc.ThreatID)
		}
		byID[sc.ThreatID] = sc
	}
	for _, id := range car.TableRowOrder {
		if _, ok := byID[id]; !ok {
			t.Errorf("no scenario for threat %s", id)
		}
	}
	if _, ok := ScenarioFor(car.ThreatEPSDeactivate); !ok {
		t.Error("ScenarioFor failed")
	}
	if _, ok := ScenarioFor("ghost"); ok {
		t.Error("ScenarioFor found ghost")
	}
}

// TestTraceMatchesRun: Trace runs Run's own cell, so every Table I
// scenario returns Run's Result under each regime, and the tracer sees at
// least every block the Result counts.
func TestTraceMatchesRun(t *testing.T) {
	h := harness(t)
	for _, sc := range Scenarios() {
		for _, enf := range []Enforcement{EnforceNone, EnforceSoftware, EnforceHPE, EnforceBehaviour} {
			want, err := h.Run(sc, enf)
			if err != nil {
				t.Fatal(err)
			}
			var events, writeBlocked, readBlocked uint64
			got, err := h.Trace(sc, enf, func(e canbus.TraceEvent) {
				events++
				switch e.Kind {
				case canbus.TraceWriteBlocked:
					writeBlocked++
				case canbus.TraceReadBlocked:
					readBlocked++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: Trace %+v, Run %+v", sc.ThreatID, enf, got, want)
			}
			if events == 0 || writeBlocked < got.WriteBlocked || readBlocked < got.ReadBlocked {
				t.Errorf("%s/%s: tracer saw %d events, %d write and %d read blocks; the result counts %d and %d",
					sc.ThreatID, enf, events, writeBlocked, readBlocked, got.WriteBlocked, got.ReadBlocked)
			}
		}
	}
}

// TestAllAttacksSucceedWithoutEnforcement is the baseline half of the
// paper's argument: on a stock CAN bus every Table I attack achieves its
// effect.
func TestAllAttacksSucceedWithoutEnforcement(t *testing.T) {
	h := harness(t)
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.ThreatID, func(t *testing.T) {
			r, err := h.Run(sc, EnforceNone)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Succeeded {
				t.Errorf("attack blocked with no enforcement: %+v", r)
			}
		})
	}
}

// TestSoftwareFiltersDoNotStopTableIAttacks shows the insufficiency of
// firmware acceptance filters (§V-B.2): they are identifier-based and
// mode-unaware, and the attacker's own node ignores them entirely.
func TestSoftwareFiltersDoNotStopTableIAttacks(t *testing.T) {
	h := harness(t)
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.ThreatID, func(t *testing.T) {
			r, err := h.Run(sc, EnforceSoftware)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Succeeded {
				t.Errorf("software filters unexpectedly stopped %s", sc.ThreatID)
			}
		})
	}
}

// TestHPEBlocksAllTableIAttacks is the enforcement half: with the compiled
// Table I policy on every node's hardware engine, every attack is blocked
// and legitimate functionality is preserved.
func TestHPEBlocksAllTableIAttacks(t *testing.T) {
	h := harness(t)
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.ThreatID, func(t *testing.T) {
			r, err := h.Run(sc, EnforceHPE)
			if err != nil {
				t.Fatal(err)
			}
			if r.Succeeded {
				t.Errorf("attack succeeded under HPE: %+v", r)
			}
			if !r.LegitimateOK {
				t.Errorf("enforcement broke legitimate traffic (false positive): %+v", r)
			}
			if r.WriteBlocked+r.ReadBlocked == 0 {
				t.Errorf("no frames blocked, yet attack failed—measurement hole: %+v", r)
			}
		})
	}
}

func TestInsideAttacksBlockedAtWriteFilter(t *testing.T) {
	h := harness(t)
	for _, sc := range Scenarios() {
		if sc.Placement != Inside {
			continue
		}
		sc := sc
		t.Run(sc.ThreatID, func(t *testing.T) {
			r, err := h.Run(sc, EnforceHPE)
			if err != nil {
				t.Fatal(err)
			}
			if r.WriteBlocked == 0 {
				t.Errorf("inside attack not stopped at the write filter: %+v", r)
			}
		})
	}
}

func TestOutsideAttacksBlockedAtReadFilters(t *testing.T) {
	h := harness(t)
	for _, sc := range Scenarios() {
		if sc.Placement != Outside {
			continue
		}
		sc := sc
		t.Run(sc.ThreatID, func(t *testing.T) {
			r, err := h.Run(sc, EnforceHPE)
			if err != nil {
				t.Fatal(err)
			}
			if r.ReadBlocked == 0 {
				t.Errorf("outside attack not stopped at read filters: %+v", r)
			}
			if r.WriteBlocked != 0 {
				t.Errorf("outside attacker has no HPE; writes cannot be blocked: %+v", r)
			}
		})
	}
}

func TestRunAllMatrix(t *testing.T) {
	h := harness(t)
	results, err := h.RunAll(Scenarios(), EnforceNone, EnforceHPE)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(Scenarios()) {
		t.Fatalf("results = %d", len(results))
	}
	succeededNone, blockedHPE := 0, 0
	for _, r := range results {
		switch r.Enforcement {
		case EnforceNone:
			if r.Succeeded {
				succeededNone++
			}
		case EnforceHPE:
			if !r.Succeeded {
				blockedHPE++
			}
		}
	}
	if succeededNone != len(Scenarios()) {
		t.Errorf("baseline: %d/%d attacks succeeded", succeededNone, len(Scenarios()))
	}
	if blockedHPE != len(Scenarios()) {
		t.Errorf("HPE: %d/%d attacks blocked", blockedHPE, len(Scenarios()))
	}
}

func TestRunRejectsBadScenario(t *testing.T) {
	h := harness(t)
	bad := Scenario{
		ThreatID:  "X",
		Placement: Inside,
		Attacker:  "NoSuchNode",
		Mode:      car.ModeNormal,
		Succeeded: func(car.State) bool { return false },
	}
	if _, err := h.Run(bad, EnforceNone); err == nil {
		t.Error("unknown attacker node accepted")
	}
	bad.Placement = Placement(99)
	if _, err := h.Run(bad, EnforceNone); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ThreatID: "T", Name: "n", Enforcement: EnforceHPE, Placement: Inside,
		Injected: 3, WriteBlocked: 3, Succeeded: false}
	s := r.String()
	if s == "" || r.Enforcement.String() != "hpe" || r.Placement.String() != "inside" {
		t.Errorf("String rendering broken: %q", s)
	}
}
