package attack

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/car"
)

// floodScenario is a campaign-style coordinated flood: every team member
// streams forged tracking reports carrying the exfiltration marker; the
// attack succeeds when enough reports reach the diagnostic backend.
func floodScenario(team []Attacker, frames int, gap time.Duration, threshold int) Scenario {
	sc := Scenario{
		ThreatID:           "FLOOD-T",
		Name:               "coordinated exfil flood",
		Placement:          team[0].Placement,
		Attacker:           team[0].Name,
		Mode:               car.ModeNormal,
		ParallelInjections: true,
		Succeeded:          func(s car.State) bool { return s.ExfilReports >= threshold },
	}
	for i, m := range team {
		if i > 0 {
			sc.Coattackers = append(sc.Coattackers, m)
		}
		sc.Injections = append(sc.Injections, Injection{
			ID: car.IDTrackingReport, Data: []byte{0xEE, 0x01},
			Repeat: frames, Gap: gap, From: m.Name,
		})
	}
	return sc
}

// stagedScenario is a campaign-style kill chain: ECU disable first, then a
// firmware write that only fires if propulsion actually went down.
func stagedScenario() Scenario {
	return Scenario{
		ThreatID:  "STAGED-T",
		Name:      "staged takeover",
		Placement: Inside,
		Attacker:  car.NodeInfotainment,
		Mode:      car.ModeNormal,
		Stages: []Stage{
			{
				Name:       "inject",
				Injections: []Injection{{ID: car.IDECUCommand, Data: []byte{car.OpDisable}, Repeat: 2}},
			},
			{
				Name:       "persist",
				Proceed:    func(s car.State) bool { return !s.Propulsion },
				Injections: []Injection{{ID: car.IDFirmwareUpdate, Data: []byte{0xDE, 0xAD}, Repeat: 2}},
			},
		},
		Succeeded: func(s car.State) bool { return s.FirmwareModified },
	}
}

// TestBehaviourRegimeStopsApprovedWriterFlood: telematics is an approved
// writer of the tracking report, so the identifier HPE waves its flood
// through; the behavioural write budget caps it below the exfiltration
// threshold. This is the credential-abuse gap §V-A's extension closes.
func TestBehaviourRegimeStopsApprovedWriterFlood(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	sc := floodScenario([]Attacker{{Name: car.NodeTelematics, Placement: Inside}}, 40, 200*time.Microsecond, 10)

	hpeRes, err := h.Run(sc, EnforceHPE)
	if err != nil {
		t.Fatal(err)
	}
	if !hpeRes.Succeeded {
		t.Errorf("identifier HPE should not stop an approved writer's flood: %+v", hpeRes)
	}
	behRes, err := h.Run(sc, EnforceBehaviour)
	if err != nil {
		t.Fatal(err)
	}
	if behRes.Succeeded {
		t.Errorf("behaviour regime failed to cap the flood: %+v", behRes)
	}
	if !behRes.LegitimateOK {
		t.Errorf("behaviour regime broke legitimate traffic: %+v", behRes)
	}
	if behRes.WriteBlocked == 0 {
		t.Errorf("expected write-budget blocks, got none: %+v", behRes)
	}
}

// TestCoordinatedFloodCountsEveryStream: a two-attacker team injects both
// streams concurrently; with no enforcement every frame lands.
func TestCoordinatedFloodCountsEveryStream(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	team := []Attacker{
		{Name: car.NodeTelematics, Placement: Inside},
		{Name: "Rogue-Feeder", Placement: Outside},
	}
	sc := floodScenario(team, 20, 200*time.Microsecond, 1)
	res, err := h.Run(sc, EnforceNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 40 {
		t.Errorf("expected 40 injected frames across the team, got %d", res.Injected)
	}
	if !res.Succeeded {
		t.Errorf("unenforced flood should land: %+v", res)
	}
}

// TestStagePredicateGatesKillChain: under no enforcement the ECU goes down
// and the persistence stage fires; under the HPE the first stage is blocked,
// the predicate fails, and the chain halts without running stage two.
func TestStagePredicateGatesKillChain(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	sc := stagedScenario()

	open, err := h.Run(sc, EnforceNone)
	if err != nil {
		t.Fatal(err)
	}
	if !open.Succeeded || open.StagesRun != 2 || open.Halted {
		t.Errorf("unenforced kill chain should complete: %+v", open)
	}
	guarded, err := h.Run(sc, EnforceHPE)
	if err != nil {
		t.Fatal(err)
	}
	if guarded.Succeeded {
		t.Errorf("HPE should stop the kill chain: %+v", guarded)
	}
	if guarded.StagesRun != 1 || !guarded.Halted {
		t.Errorf("expected the chain to halt after stage 1, got %+v", guarded)
	}
}

// TestSkipProbeReportsLegitimateOK: probe-free scenarios never count as
// false positives.
func TestSkipProbeReportsLegitimateOK(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenarios()[0]
	sc.SkipProbe = true
	res, err := h.Run(sc, EnforceHPE)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LegitimateOK {
		t.Errorf("SkipProbe must report LegitimateOK: %+v", res)
	}
}

// TestArenaMatchesFreshCampaignShapes extends the zero-rebuild contract to
// the campaign constructs: coordinated floods, staged chains and the
// behaviour regime must be byte-identical between pooled and fresh runs.
func TestArenaMatchesFreshCampaignShapes(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	arena, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		floodScenario([]Attacker{
			{Name: car.NodeTelematics, Placement: Inside},
			{Name: car.NodeSensors, Placement: Inside},
		}, 30, 300*time.Microsecond, 10),
		stagedScenario(),
		Scenarios()[0],
		Scenarios()[11], // DOOR-1: exercises the unlock-in-motion rule
	}
	regimes := []Enforcement{EnforceNone, EnforceHPE, EnforceBehaviour}

	pooled, err := arena.RunMatrix(scenarios, regimes...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := h.RunMatrix(scenarios, regimes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, fresh) {
		t.Errorf("pooled and fresh campaign-shape matrices diverged:\npooled %+v\nfresh  %+v", pooled, fresh)
	}
	// A second pooled pass must reproduce the first (warm rate-rule state
	// fully cleared by the guards' Reset).
	again, err := arena.RunMatrix(scenarios, regimes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, again) {
		t.Error("second pooled pass diverged: behavioural state leaked across resets")
	}
}
