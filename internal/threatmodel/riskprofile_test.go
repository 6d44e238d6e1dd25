package threatmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dread"
)

func profileFixture(t *testing.T, threats []Threat) RiskProfile {
	t.Helper()
	a, err := Analyze(testUseCase(), threats)
	if err != nil {
		t.Fatal(err)
	}
	return Profile(a)
}

func TestProfileAggregation(t *testing.T) {
	t1 := testThreat("T1") // ecu, score 6,5,5,6,6 -> avg 5.6
	t2 := testThreat("T2")
	t2.Assessment.Damage = dread.DamageLife // 9,... -> avg 6.2
	t3 := testThreat("T3")
	t3.Asset = "display"
	t3.EntryPoints = []string{"usb"}
	p := profileFixture(t, []Threat{t1, t2, t3})

	if p.UseCase != "toy-device" {
		t.Errorf("use case = %q", p.UseCase)
	}
	wantTotal := 5.6 + 6.2 + 5.6
	if math.Abs(p.TotalExposure-wantTotal) > 1e-9 {
		t.Errorf("TotalExposure = %v, want %v", p.TotalExposure, wantTotal)
	}
	// ecu carries the most exposure mass and sorts first.
	if p.Assets[0].Asset != "ecu" {
		t.Fatalf("top asset = %q", p.Assets[0].Asset)
	}
	ecu := p.Assets[0]
	if ecu.ThreatCount != 2 || math.Abs(ecu.SumAverage-11.8) > 1e-9 ||
		math.Abs(ecu.MaxAverage-6.2) > 1e-9 {
		t.Errorf("ecu risk = %+v", ecu)
	}
	if ecu.WorstRating != dread.High {
		t.Errorf("ecu worst rating = %v", ecu.WorstRating)
	}
	if !ecu.Critical || ecu.Node != "ECU" {
		t.Errorf("ecu metadata = %+v", ecu)
	}
	// Entry points: "bus" carries T1+T2, "usb" carries T3.
	if p.EntryPoints[0].EntryPoint != "bus" || p.EntryPoints[0].ThreatCount != 2 {
		t.Errorf("top entry = %+v", p.EntryPoints[0])
	}
	if p.EntryPoints[1].EntryPoint != "usb" || p.EntryPoints[1].ThreatCount != 1 {
		t.Errorf("second entry = %+v", p.EntryPoints[1])
	}
}

func TestProfileString(t *testing.T) {
	p := profileFixture(t, []Threat{testThreat("T1")})
	out := p.String()
	for _, frag := range []string{"risk profile", "ecu", "[critical]", "entry points", "bus"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, out)
		}
	}
}
