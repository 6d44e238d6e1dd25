package threatmodel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dread"
	"repro/internal/policy"
	"repro/internal/stride"
)

func testUseCase() UseCase {
	return UseCase{
		Name:  "toy-device",
		Modes: []policy.Mode{"Normal", "Service"},
		Assets: []Asset{
			{Name: "ecu", Node: "ECU", Critical: true, Description: "engine control"},
			{Name: "display", Node: "HMI", Description: "driver display"},
		},
		EntryPoints: []EntryPoint{
			{Name: "bus", Exposes: []string{"ecu", "display"}},
			{Name: "usb", Exposes: []string{"display"}},
		},
		Comm: []CommRequirement{
			{Subject: "ECU", Action: policy.ActRead, IDs: policy.SingleID(0x10),
				Rationale: "commands rx"},
			{Subject: "HMI", Action: policy.ActRead, IDs: policy.SingleID(0x20),
				Modes: []policy.Mode{"Normal"}, Rationale: "status rx"},
			{Subject: "ECU", Action: policy.ActWrite, IDs: policy.SingleID(0x20),
				Rationale: "status tx"},
		},
	}
}

func testThreat(id string) Threat {
	return Threat{
		ID:          id,
		Description: "spoofed command",
		Asset:       "ecu",
		EntryPoints: []string{"bus"},
		Modes:       []policy.Mode{"Normal"},
		Effects:     stride.Effects{ForgesIdentity: true, DisruptsService: true},
		Assessment: dread.Assessment{
			Damage:          dread.DamageSubsystem,
			Reproducibility: dread.ReproReliable,
			Exploitability:  dread.ExploitSkilled,
			AffectedUsers:   dread.AffectedOwner,
			Discoverability: dread.DiscoverKnown,
		},
		Vector: VectorInbound,
	}
}

func TestAnalyzeHappyPath(t *testing.T) {
	a, err := Analyze(testUseCase(), []Threat{testThreat("T1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Threats) != 1 {
		t.Fatalf("threats = %d", len(a.Threats))
	}
	rt := a.Threats[0]
	if rt.Stride.String() != "SD" {
		t.Errorf("stride = %v", rt.Stride)
	}
	if got := rt.Score.String(); got != "6,5,5,6,6 (5.6)" {
		t.Errorf("score = %v", got)
	}
	if rt.Rating != dread.Medium {
		t.Errorf("rating = %v", rt.Rating)
	}
	if rt.Policy != policy.ActRead {
		t.Errorf("policy = %v", rt.Policy)
	}
}

func TestAnalyzeSortsBySeverity(t *testing.T) {
	low := testThreat("LOW")
	low.Assessment.Damage = dread.DamageCosmetic
	high := testThreat("HIGH")
	high.Assessment.Damage = dread.DamageLife
	a, err := Analyze(testUseCase(), []Threat{low, high})
	if err != nil {
		t.Fatal(err)
	}
	if a.Threats[0].ID != "HIGH" || a.Threats[1].ID != "LOW" {
		t.Errorf("severity order wrong: %s, %s", a.Threats[0].ID, a.Threats[1].ID)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	mk := func(mutate func(*Threat)) []Threat {
		th := testThreat("T1")
		mutate(&th)
		return []Threat{th}
	}
	tests := []struct {
		name    string
		threats []Threat
		stage   Stage
		wantErr error
	}{
		{"unknown asset", mk(func(t *Threat) { t.Asset = "ghost" }),
			StageThreatIdentification, ErrUnknownAsset},
		{"unknown entry", mk(func(t *Threat) { t.EntryPoints = []string{"ghost"} }),
			StageThreatIdentification, ErrUnknownEntry},
		{"unknown mode", mk(func(t *Threat) { t.Modes = []policy.Mode{"Ghost"} }),
			StageThreatIdentification, ErrUnknownMode},
		{"no effects", mk(func(t *Threat) { t.Effects = stride.Effects{} }),
			StageThreatIdentification, nil},
		{"no vector", mk(func(t *Threat) { t.Vector = 0 }),
			StageCountermeasures, ErrNoVector},
		{"no id", mk(func(t *Threat) { t.ID = "" }),
			StageThreatIdentification, nil},
		{"duplicate id", append(mk(func(*Threat) {}), testThreat("T1")),
			StageThreatIdentification, ErrDupThreat},
		{"bad assessment", mk(func(t *Threat) { t.Assessment.Damage = 99 }),
			StageThreatRating, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Analyze(testUseCase(), tt.threats)
			if err == nil {
				t.Fatal("Analyze succeeded")
			}
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("error type %T", err)
			}
			if se.Stage != tt.stage {
				t.Errorf("stage = %v, want %v", se.Stage, tt.stage)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestUseCaseValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*UseCase)
	}{
		{"no name", func(u *UseCase) { u.Name = "" }},
		{"no modes", func(u *UseCase) { u.Modes = nil }},
		{"dup asset", func(u *UseCase) { u.Assets = append(u.Assets, u.Assets[0]) }},
		{"asset no node", func(u *UseCase) { u.Assets[0].Node = "" }},
		{"dup entry", func(u *UseCase) { u.EntryPoints = append(u.EntryPoints, u.EntryPoints[0]) }},
		{"entry exposes ghost", func(u *UseCase) { u.EntryPoints[0].Exposes = []string{"ghost"} }},
		{"comm no subject", func(u *UseCase) { u.Comm[0].Subject = "" }},
		{"comm no ids", func(u *UseCase) { u.Comm[0].IDs = nil }},
		{"comm unknown mode", func(u *UseCase) { u.Comm[0].Modes = []policy.Mode{"Ghost"} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			uc := testUseCase()
			tt.mutate(&uc)
			if err := uc.Validate(); err == nil {
				t.Error("Validate accepted invalid use case")
			}
		})
	}
}

func TestVectorPolicyMapping(t *testing.T) {
	if VectorInbound.PolicyAction() != policy.ActRead {
		t.Error("inbound -> R")
	}
	if VectorOutbound.PolicyAction() != policy.ActWrite {
		t.Error("outbound -> W")
	}
	if VectorBidirectional.PolicyAction() != policy.ActReadWrite {
		t.Error("bidirectional -> RW")
	}
	if Vector(0).PolicyAction() != 0 {
		t.Error("invalid vector must map to zero action")
	}
}

func TestDerivePolicies(t *testing.T) {
	a, err := Analyze(testUseCase(), []Threat{testThreat("T1")})
	if err != nil {
		t.Fatal(err)
	}
	set, err := DerivePolicies(a, "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if set.Name != "toy-device" || set.Version != 7 {
		t.Errorf("set header %s/%d", set.Name, set.Version)
	}
	if len(set.Rules) != 3 {
		t.Fatalf("rules = %d", len(set.Rules))
	}
	// Least privilege: declared flows allowed, everything else denied.
	if set.Decide("ECU", "Normal", policy.ActRead, 0x10) != policy.Allow {
		t.Error("declared flow denied")
	}
	if set.Decide("ECU", "Normal", policy.ActWrite, 0x10) != policy.Deny {
		t.Error("undeclared direction allowed")
	}
	if set.Decide("HMI", "Service", policy.ActRead, 0x20) != policy.Deny {
		t.Error("mode-restricted flow allowed in wrong mode")
	}
	if set.Decide("HMI", "Normal", policy.ActRead, 0x20) != policy.Allow {
		t.Error("mode-restricted flow denied in right mode")
	}
}

func TestDeriveGuidelines(t *testing.T) {
	inbound := testThreat("IN")
	outbound := testThreat("OUT")
	outbound.Vector = VectorOutbound
	both := testThreat("BOTH")
	both.Vector = VectorBidirectional
	a, err := Analyze(testUseCase(), []Threat{inbound, outbound, both})
	if err != nil {
		t.Fatal(err)
	}
	g := DeriveGuidelines(a)
	if g.UseCase != "toy-device" || len(g.Guidelines) != 3 {
		t.Fatalf("guidelines = %+v", g)
	}
	byThreat := map[string]Guideline{}
	for _, gl := range g.Guidelines {
		if len(gl.Mitigates) != 1 {
			t.Fatalf("guideline mitigates %v", gl.Mitigates)
		}
		byThreat[gl.Mitigates[0]] = gl
		if gl.Component != "ECU" {
			t.Errorf("component = %q", gl.Component)
		}
	}
	if !strings.Contains(byThreat["IN"].Text, "inbound") {
		t.Errorf("inbound guideline: %q", byThreat["IN"].Text)
	}
	if !strings.Contains(byThreat["OUT"].Text, "transmit") {
		t.Errorf("outbound guideline: %q", byThreat["OUT"].Text)
	}
	if !strings.Contains(byThreat["BOTH"].Text, "isolate") {
		t.Errorf("bidirectional guideline: %q", byThreat["BOTH"].Text)
	}
}

func TestRestrictions(t *testing.T) {
	a, err := Analyze(testUseCase(), []Threat{testThreat("T1")})
	if err != nil {
		t.Fatal(err)
	}
	rs := Restrictions(a)
	if len(rs) != 1 || rs[0].ThreatID != "T1" || rs[0].Node != "ECU" || rs[0].Action != policy.ActRead {
		t.Errorf("restrictions = %+v", rs)
	}
}

func TestAnalysisHelpers(t *testing.T) {
	a, err := Analyze(testUseCase(), []Threat{testThreat("T1"), func() Threat {
		th := testThreat("T2")
		th.Asset = "display"
		return th
	}()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Threat("T2"); !ok {
		t.Error("Threat lookup failed")
	}
	if _, ok := a.Threat("ghost"); ok {
		t.Error("ghost threat found")
	}
}

func TestStageStringsMatchFig1(t *testing.T) {
	want := []string{
		"Risk assessment", "Identify Assets", "Entry Points",
		"Threat Identification", "Threat Rating", "Determine countermeasure",
	}
	stages := []Stage{
		StageRiskAssessment, StageAssetIdentification, StageEntryPoints,
		StageThreatIdentification, StageThreatRating, StageCountermeasures,
	}
	for i, s := range stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
}
