package attack

import (
	"reflect"
	"testing"
)

func TestRunMatrixAggregatesMatchResults(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()[:4]
	m, err := h.RunMatrix(scenarios, EnforceNone, EnforceHPE)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.Results), len(scenarios)*2; got != want {
		t.Fatalf("len(Results) = %d, want %d", got, want)
	}
	if len(m.Regimes) != 2 || m.Regimes[0].Regime != EnforceNone || m.Regimes[1].Regime != EnforceHPE {
		t.Fatalf("regime order %v, want [none hpe]", m.Regimes)
	}
	// Re-summarising the raw results per regime must reproduce the
	// aggregates the sweep accumulated.
	for i, rs := range m.Regimes {
		var manual Summary
		for _, r := range m.Results {
			if r.Enforcement == rs.Regime {
				manual.Add(r)
			}
		}
		if manual != rs.Summary {
			t.Errorf("regime %d summary = %+v, recomputed %+v", i, rs.Summary, manual)
		}
		if rs.Summary.Runs != len(scenarios) {
			t.Errorf("regime %v Runs = %d, want %d", rs.Regime, rs.Summary.Runs, len(scenarios))
		}
	}
	whole := m.Summary()
	if whole.Runs != len(m.Results) {
		t.Errorf("matrix summary Runs = %d, want %d", whole.Runs, len(m.Results))
	}
	if whole != Summarize(m.Results) {
		t.Errorf("Matrix.Summary() %+v != Summarize(Results) %+v", whole, Summarize(m.Results))
	}
}

func TestRunMatrixUnenforcedAttacksSucceed(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.RunMatrix(Scenarios(), EnforceNone)
	if err != nil {
		t.Fatal(err)
	}
	if rate := m.Regimes[0].Summary.SuccessRate(); rate != 1.0 {
		t.Errorf("unenforced success rate = %v, want 1.0", rate)
	}
}

func TestMatrixDeterministicForSameSeed(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()[:3]
	run := func() Matrix {
		m, err := h.RunMatrix(scenarios, EnforceNone, EnforceHPE)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("matrices of the same input differ")
	}
}
