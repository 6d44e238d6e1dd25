package hpe

import (
	"testing"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/policy/ir"
)

// reinstallPolicy builds a small compiled policy for the reuse tests.
func reinstallPolicy(t *testing.T, version uint64) *policy.Compiled {
	t.Helper()
	set := &policy.Set{Name: "p", Version: version, Rules: []policy.Rule{
		{Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead, IDs: policy.SingleID(0x100)},
	}}
	c, err := policy.Compile(set, policy.CompileOptions{
		Subjects: []string{"ecu"}, Modes: []policy.Mode{"Normal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineReset checks Reset zeroes the counters while the installed
// table keeps deciding identically.
func TestEngineReset(t *testing.T) {
	c := reinstallPolicy(t, 1)
	e := New("ecu", FixedMode("Normal"), DefaultCycleModel())
	if err := e.Install(c); err != nil {
		t.Fatal(err)
	}
	granted := canbus.MustDataFrame(0x100, nil)
	blocked := canbus.MustDataFrame(0x200, nil)
	e.Decide(canbus.Read, granted)
	e.Decide(canbus.Read, blocked)
	if e.Stats().Decisions != 2 {
		t.Fatalf("stats before reset: %+v", e.Stats())
	}
	e.Reset()
	if e.Stats() != (Stats{}) {
		t.Fatalf("stats after reset: %+v", e.Stats())
	}
	if e.table == nil {
		t.Fatal("reset dropped the installed table")
	}
	if e.Decide(canbus.Read, granted) != canbus.Grant {
		t.Error("grant path broken after reset")
	}
	if e.Decide(canbus.Read, blocked) != canbus.Block {
		t.Error("block path broken after reset")
	}
}

// TestEngineReinstall checks ReinstallEnforcer keeps the installed table
// for the enforcer already installed and swaps for a different one.
func TestEngineReinstall(t *testing.T) {
	c1 := ir.WrapCompiled(reinstallPolicy(t, 1))
	e := New("ecu", FixedMode("Normal"), DefaultCycleModel())
	if err := e.InstallEnforcer(c1); err != nil {
		t.Fatal(err)
	}
	before := e.table
	if err := e.ReinstallEnforcer(c1); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Installs; got != 2 {
		t.Errorf("Installs = %d after Install+Reinstall, want 2", got)
	}
	if e.table != before {
		t.Error("same-enforcer Reinstall looked the table up again")
	}
	if e.Decide(canbus.Read, canbus.MustDataFrame(0x100, nil)) != canbus.Grant {
		t.Error("table lost across same-policy Reinstall")
	}

	// A different compiled policy must actually swap.
	set := &policy.Set{Name: "p", Version: 2, Rules: []policy.Rule{
		{Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead, IDs: policy.SingleID(0x200)},
	}}
	c2, err := policy.Compile(set, policy.CompileOptions{
		Subjects: []string{"ecu"}, Modes: []policy.Mode{"Normal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReinstallEnforcer(ir.WrapCompiled(c2)); err != nil {
		t.Fatal(err)
	}
	if e.Decide(canbus.Read, canbus.MustDataFrame(0x200, nil)) != canbus.Grant {
		t.Error("Reinstall with a new policy did not swap the table")
	}
	if e.Decide(canbus.Read, canbus.MustDataFrame(0x100, nil)) != canbus.Block {
		t.Error("old table still active after swap")
	}
}

// TestModeCache checks the resolved-mode cache Decide keeps follows mode
// switches and table swaps: a different table installed in an unchanged
// mode takes effect at the next decision, and a same-enforcer reinstall
// changes no decision.
func TestModeCache(t *testing.T) {
	set := &policy.Set{Name: "p", Version: 1, Rules: []policy.Rule{
		{Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead,
			IDs: policy.SingleID(0x100), Modes: policy.NewModeSet("Normal")},
		{Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead,
			IDs: policy.SingleID(0x200), Modes: policy.NewModeSet("Diag")},
	}}
	c, err := policy.Compile(set, policy.CompileOptions{
		Subjects: []string{"ecu"}, Modes: []policy.Mode{"Normal", "Diag"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mode := policy.Mode("Normal")
	e := New("ecu", modeFunc(func() policy.Mode { return mode }), DefaultCycleModel())
	if err := e.Install(c); err != nil {
		t.Fatal(err)
	}
	f1 := canbus.MustDataFrame(0x100, nil)
	f2 := canbus.MustDataFrame(0x200, nil)
	f3 := canbus.MustDataFrame(0x300, nil)
	expect := func(step string, want1, want2, want3 canbus.Verdict) {
		t.Helper()
		got1, got2, got3 := e.Decide(canbus.Read, f1), e.Decide(canbus.Read, f2), e.Decide(canbus.Read, f3)
		if got1 != want1 || got2 != want2 || got3 != want3 {
			t.Errorf("%s: 0x100/0x200/0x300 = %v/%v/%v, want %v/%v/%v",
				step, got1, got2, got3, want1, want2, want3)
		}
	}
	expect("Normal", canbus.Grant, canbus.Block, canbus.Block)
	mode = "Diag"
	expect("mode switch", canbus.Block, canbus.Grant, canbus.Block)

	// A different table in the unchanged mode: the cache keyed on the old
	// table must not answer for the new one.
	swapped := &policy.Set{Name: "p", Version: 2, Rules: []policy.Rule{
		{Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead,
			IDs: policy.SingleID(0x300), Modes: policy.NewModeSet("Diag")},
	}}
	c2, err := policy.Compile(swapped, policy.CompileOptions{
		Subjects: []string{"ecu"}, Modes: []policy.Mode{"Normal", "Diag"},
	})
	if err != nil {
		t.Fatal(err)
	}
	enf := ir.WrapCompiled(c2)
	if err := e.InstallEnforcer(enf); err != nil {
		t.Fatal(err)
	}
	expect("table swap", canbus.Block, canbus.Block, canbus.Grant)

	// Re-provisioning with the installed enforcer keeps table and cache.
	if err := e.ReinstallEnforcer(enf); err != nil {
		t.Fatal(err)
	}
	expect("same-enforcer reinstall", canbus.Block, canbus.Block, canbus.Grant)
	mode = "Normal"
	expect("mode switch after swap", canbus.Block, canbus.Block, canbus.Block)
}
