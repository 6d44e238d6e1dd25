package car

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/threatmodel"
)

// tableIRow is one expected Table I row from the paper, transcribed
// verbatim: STRIDE letters, the five DREAD components with their average,
// and the policy letter. The test asserts that our rubric-driven pipeline
// *computes* exactly these values from the scenario encodings.
type tableIRow struct {
	threatID string
	asset    string
	stride   string
	dread    string
	policy   string
}

// paperTableI transcribes the paper's Table I in row order.
var paperTableI = []tableIRow{
	{ThreatECUSpoofLocks, AssetEVECU, "STD", "8,5,4,6,4 (5.4)", "R"},
	{ThreatECUSpoofSensors, AssetEVECU, "STD", "8,5,4,6,4 (5.4)", "R"},
	{ThreatECUTrackingOff, AssetEVECU, "SD", "6,3,3,6,4 (4.4)", "RW"},
	{ThreatECUFailsafeOvrd, AssetEVECU, "STE", "5,5,5,7,6 (5.6)", "R"},
	{ThreatEPSDeactivate, AssetEPS, "STD", "5,5,5,6,7 (5.6)", "R"},
	{ThreatEngineDeactivate, AssetEngine, "STD", "6,5,4,7,5 (5.4)", "R"},
	{ThreatConnCritModify, AssetConnectivity, "STIDE", "7,5,5,9,4 (6.0)", "R"},
	{ThreatConnPrivacy, AssetConnectivity, "TIE", "7,5,5,6,5 (5.6)", "R"},
	{ThreatConnModemOffEmg, AssetConnectivity, "TDE", "6,6,7,8,6 (6.6)", "RW"},
	{ThreatConnModemOffSens, AssetConnectivity, "TDE", "6,6,7,8,6 (6.6)", "R"},
	{ThreatInfoEscalate, AssetInfotainment, "STE", "7,5,6,8,6 (6.4)", "R"},
	{ThreatInfoStatusMod, AssetInfotainment, "STR", "3,5,6,4,5 (4.6)", "R"},
	{ThreatDoorUnlockMotion, AssetDoorLocks, "TDE", "8,5,3,8,5 (5.8)", "R"},
	{ThreatDoorLockAccident, AssetDoorLocks, "TDE", "8,6,7,8,5 (6.8)", "W"},
	{ThreatSafetyFalseTrig, AssetSafety, "STE", "7,4,5,8,4 (5.6)", "R"},
	{ThreatSafetyAlarmOff, AssetSafety, "TE", "9,4,5,9,4 (6.2)", "W"},
}

// TestTableIReproduction is the headline Table I check: every row's STRIDE
// classification, DREAD tuple (with average) and policy letter must be
// computed exactly as printed in the paper.
func TestTableIReproduction(t *testing.T) {
	a, err := Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Threats) != len(paperTableI) {
		t.Fatalf("analysis produced %d threats, want %d", len(a.Threats), len(paperTableI))
	}
	for _, row := range paperTableI {
		row := row
		t.Run(row.threatID, func(t *testing.T) {
			rt, ok := a.Threat(row.threatID)
			if !ok {
				t.Fatalf("threat %s missing from analysis", row.threatID)
			}
			if rt.Asset != row.asset {
				t.Errorf("asset = %q, want %q", rt.Asset, row.asset)
			}
			if got := rt.Stride.String(); got != row.stride {
				t.Errorf("STRIDE = %s, want %s", got, row.stride)
			}
			if got := rt.Score.String(); got != row.dread {
				t.Errorf("DREAD = %s, want %s", got, row.dread)
			}
			if got := rt.Policy.String(); got != row.policy {
				t.Errorf("policy = %s, want %s", got, row.policy)
			}
		})
	}
}

func TestTableRowOrderCoversAllThreats(t *testing.T) {
	if len(TableRowOrder) != len(Threats()) {
		t.Fatalf("TableRowOrder has %d entries, threats %d", len(TableRowOrder), len(Threats()))
	}
	seen := map[string]bool{}
	for _, id := range TableRowOrder {
		if seen[id] {
			t.Errorf("duplicate row id %s", id)
		}
		seen[id] = true
	}
	for _, th := range Threats() {
		if !seen[th.ID] {
			t.Errorf("threat %s missing from TableRowOrder", th.ID)
		}
	}
}

func TestUseCaseIsValid(t *testing.T) {
	uc := UseCase()
	if err := uc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(uc.Assets) != 7 {
		t.Errorf("assets = %d, want the 7 Table I critical assets", len(uc.Assets))
	}
	if len(uc.Modes) != 3 {
		t.Errorf("modes = %d, want 3 car modes", len(uc.Modes))
	}
}

func TestCatalogConsistency(t *testing.T) {
	nodes := map[string]bool{}
	for _, n := range AllNodes {
		nodes[n] = true
	}
	seenID := map[uint32]bool{}
	for _, m := range Catalog {
		if seenID[m.ID] {
			t.Errorf("duplicate catalog ID 0x%X", m.ID)
		}
		seenID[m.ID] = true
		if len(m.Writers) == 0 || len(m.Readers) == 0 {
			t.Errorf("message %s has no writers or readers", m.Name)
		}
		for _, w := range m.Writers {
			if !nodes[w] {
				t.Errorf("message %s writer %q is not a node", m.Name, w)
			}
		}
		for _, r := range m.Readers {
			if !nodes[r] {
				t.Errorf("message %s reader %q is not a node", m.Name, r)
			}
			for _, w := range m.Writers {
				if w == r {
					t.Errorf("message %s: %q both writes and reads (loopback)", m.Name, w)
				}
			}
		}
	}
}

func TestDerivedPolicyMatchesCatalog(t *testing.T) {
	a, err := Analyze()
	if err != nil {
		t.Fatal(err)
	}
	set, err := threatmodel.DerivePolicies(a, "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every catalog flow must be allowed in its modes and denied outside
	// them; undeclared flows must be denied.
	for _, m := range Catalog {
		modes := m.Modes
		if len(modes) == 0 {
			modes = AllModes
		}
		allowed := map[policy.Mode]bool{}
		for _, mode := range modes {
			allowed[mode] = true
		}
		for _, mode := range AllModes {
			for _, w := range m.Writers {
				got := set.Decide(w, mode, policy.ActWrite, m.ID)
				want := policy.Deny
				if allowed[mode] {
					want = policy.Allow
				}
				if got != want {
					t.Errorf("%s write by %s in %s = %v, want %v", m.Name, w, mode, got, want)
				}
			}
			for _, r := range m.Readers {
				got := set.Decide(r, mode, policy.ActRead, m.ID)
				want := policy.Deny
				if allowed[mode] {
					want = policy.Allow
				}
				if got != want {
					t.Errorf("%s read by %s in %s = %v, want %v", m.Name, r, mode, got, want)
				}
			}
			// A non-reader, non-writer node gets nothing.
			if set.Decide(NodeDiagnostics, mode, policy.ActWrite, IDECUCommand) != policy.Deny {
				t.Error("diagnostics may write ecu-command")
			}
		}
	}
}
