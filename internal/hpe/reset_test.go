package hpe

import (
	"testing"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/policy/ir"
)

// resetPolicy builds a small compiled policy for TestEngineReset.
func resetPolicy(t *testing.T) *policy.Compiled {
	t.Helper()
	set := &policy.Set{Name: "p", Version: 1, Rules: []policy.Rule{
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

// TestEngineReset checks Reset zeroes the decision counters, keeps the
// Installs count, and leaves the installed table deciding identically.
func TestEngineReset(t *testing.T) {
	c := resetPolicy(t)
	e := New("ecu", FixedMode("Normal"))
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
	if e.Stats() != (Stats{Installs: 1}) {
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

// TestModeCache checks the resolved-mode cache Decide keeps follows mode
// switches and table swaps: a different table installed in an unchanged
// mode takes effect at the next decision, and a Reset changes no decision.
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
	e := New("ecu", modeFunc(func() policy.Mode { return mode }))
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

	// Re-provisioning a pooled engine is a Reset: table and cache stay.
	e.Reset()
	expect("reset", canbus.Block, canbus.Block, canbus.Grant)
	mode = "Normal"
	expect("mode switch after swap", canbus.Block, canbus.Block, canbus.Block)
}
