package hpe

import (
	"errors"
	"testing"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/policy/ir"
	"repro/internal/sim"
)

// buildEnforcer compiles the shared test policy with the named backend.
func buildEnforcer(t *testing.T, backend string) ir.Enforcer {
	t.Helper()
	set, err := policy.Parse(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	enf, err := ir.Build(set, policy.CompileOptions{
		Subjects: []string{"ecu"},
		Modes:    []policy.Mode{"Normal", "Diag"},
		Backend:  backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	return enf
}

// TestInstallEnforcerDecisionsMatchTable drives every registered backend
// through the engine's Decide path and requires verdicts identical to the
// legacy table install, in both modes and directions.
func TestInstallEnforcerDecisionsMatchTable(t *testing.T) {
	probes := []struct {
		dir canbus.Direction
		id  uint32
	}{
		{canbus.Read, 0x100}, {canbus.Write, 0x100},
		{canbus.Read, 0x200}, {canbus.Write, 0x200},
		{canbus.Read, 0x7DF}, {canbus.Write, 0x7DF},
		{canbus.Read, 0x123}, {canbus.Write, 0x123},
	}
	for _, mode := range []policy.Mode{"Normal", "Diag", "Limp"} {
		ref := newEngine(t, mode)
		for _, backend := range ir.Names() {
			e := New("ecu", FixedMode(mode))
			if err := e.InstallEnforcer(buildEnforcer(t, backend)); err != nil {
				t.Fatalf("InstallEnforcer(%s): %v", backend, err)
			}
			if e.backend != backend {
				t.Errorf("backend = %q, want %q", e.backend, backend)
			}
			if e.table == nil {
				t.Fatalf("%s engine claims not installed", backend)
			}
			for _, p := range probes {
				want := ref.Decide(p.dir, frame(p.id))
				if got := e.Decide(p.dir, frame(p.id)); got != want {
					t.Errorf("%s mode %s: Decide(%v, 0x%X) = %v, want %v",
						backend, mode, p.dir, p.id, got, want)
				}
			}
		}
	}
}

// TestSnapshotBackendIdentity is the fail-fast contract: a checkpoint
// captured under one policy backend must refuse to restore onto an engine
// running another, with the typed ErrBackendMismatch.
func TestSnapshotBackendIdentity(t *testing.T) {
	table := newEngine(t, "Normal")
	table.Decide(canbus.Read, frame(0x100))
	var snap Snapshot
	table.Snapshot(&snap)
	if snap.backend != ir.DefaultBackend {
		t.Errorf("snapshot backend = %q, want %q", snap.backend, ir.DefaultBackend)
	}
	if err := table.RestoreFrom(&snap); err != nil {
		t.Fatalf("same-backend restore: %v", err)
	}

	closure := New("ecu", FixedMode("Normal"))
	if err := closure.InstallEnforcer(buildEnforcer(t, "closure")); err != nil {
		t.Fatal(err)
	}
	err := closure.RestoreFrom(&snap)
	if !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("cross-backend restore error = %v, want ErrBackendMismatch", err)
	}

	// The refused restore must leave the engine's state untouched.
	if got := closure.Stats().Decisions; got != 0 {
		t.Errorf("refused restore mutated stats: Decisions = %d", got)
	}
	var csnap Snapshot
	closure.Decide(canbus.Write, frame(0x200))
	closure.Snapshot(&csnap)
	if csnap.backend != "closure" {
		t.Errorf("closure snapshot backend = %q", csnap.backend)
	}
	if err := closure.RestoreFrom(&csnap); err != nil {
		t.Fatalf("closure same-backend restore: %v", err)
	}
}

// TestDeployEnforcer mirrors TestDeploy on the enforcer path.
func TestDeployEnforcer(t *testing.T) {
	bus := canbus.New(&sim.Scheduler{}, canbus.Config{})
	bus.MustAttach("ecu")
	engines, err := DeployEnforcer(bus, buildEnforcer(t, "expr"), FixedMode("Normal"), "ecu")
	if err != nil {
		t.Fatal(err)
	}
	if engines["ecu"].backend != "expr" {
		t.Errorf("deployed backend = %q, want expr", engines["ecu"].backend)
	}
	if _, err := DeployEnforcer(bus, buildEnforcer(t, "expr"), FixedMode("Normal"), "ghost"); err == nil {
		t.Error("unknown node: want error")
	}
}

// TestDecideAllocFree pins the per-frame cost every backend shares: Decide
// allocates nothing on the table, expr or closure backend, in a known mode,
// an unknown mode and for a subject the policy does not know.
func TestDecideAllocFree(t *testing.T) {
	for _, backend := range ir.Names() {
		for _, c := range []struct {
			subject string
			mode    policy.Mode
		}{{"ecu", "Normal"}, {"ecu", "Limp"}, {"ghost", "Normal"}} {
			e := New(c.subject, FixedMode(c.mode))
			if err := e.InstallEnforcer(buildEnforcer(t, backend)); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				e.Decide(canbus.Read, frame(0x100))
				e.Decide(canbus.Write, frame(0x200))
				e.Decide(canbus.Read, frame(0x123))
			})
			if allocs != 0 {
				t.Errorf("%s %s/%s: Decide allocates %.1f/op, want 0",
					backend, c.subject, c.mode, allocs)
			}
		}
	}
}
