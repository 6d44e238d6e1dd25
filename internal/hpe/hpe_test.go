package hpe

import (
	"testing"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/sim"
)

func compiled(t *testing.T, src string, subjects []string, modes []policy.Mode) *policy.Compiled {
	t.Helper()
	set, err := policy.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := policy.Compile(set, policy.CompileOptions{Subjects: subjects, Modes: modes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const testPolicy = `policy "p" version 1 {
  allow read 0x100 at ecu
  allow write 0x200 at ecu
  mode Diag {
    allow read 0x7DF at ecu
  }
}`

func newEngine(t *testing.T, mode policy.Mode) *Engine {
	t.Helper()
	c := compiled(t, testPolicy, []string{"ecu"}, []policy.Mode{"Normal", "Diag"})
	e := New("ecu", FixedMode(mode))
	if err := e.Install(c); err != nil {
		t.Fatal(err)
	}
	return e
}

func frame(id uint32) canbus.Frame { return canbus.MustDataFrame(id, nil) }

func TestFailClosedBeforeInstall(t *testing.T) {
	e := New("ecu", FixedMode("Normal"))
	if e.table != nil {
		t.Fatal("fresh engine claims installed")
	}
	if v := e.Decide(canbus.Read, frame(0x100)); v != canbus.Block {
		t.Error("uninstalled engine granted a read")
	}
	if v := e.Decide(canbus.Write, frame(0x200)); v != canbus.Block {
		t.Error("uninstalled engine granted a write")
	}
}

func TestDecideDirectionality(t *testing.T) {
	e := newEngine(t, "Normal")
	tests := []struct {
		dir  canbus.Direction
		id   uint32
		want canbus.Verdict
	}{
		{canbus.Read, 0x100, canbus.Grant},
		{canbus.Write, 0x100, canbus.Block}, // read-only ID
		{canbus.Write, 0x200, canbus.Grant},
		{canbus.Read, 0x200, canbus.Block}, // write-only ID
		{canbus.Read, 0x7DF, canbus.Block}, // Diag-mode ID in Normal
		{canbus.Read, 0x555, canbus.Block}, // unknown ID
	}
	for _, tt := range tests {
		if got := e.Decide(tt.dir, frame(tt.id)); got != tt.want {
			t.Errorf("Decide(%v, 0x%X) = %v, want %v", tt.dir, tt.id, got, tt.want)
		}
	}
}

func TestModeSwitchChangesDecisions(t *testing.T) {
	c := compiled(t, testPolicy, []string{"ecu"}, []policy.Mode{"Normal", "Diag"})
	mode := policy.Mode("Normal")
	e := New("ecu", modeFunc(func() policy.Mode { return mode }))
	if err := e.Install(c); err != nil {
		t.Fatal(err)
	}
	if e.Decide(canbus.Read, frame(0x7DF)) != canbus.Block {
		t.Fatal("diag ID granted in Normal mode")
	}
	mode = "Diag"
	if e.Decide(canbus.Read, frame(0x7DF)) != canbus.Grant {
		t.Error("diag ID blocked in Diag mode")
	}
}

// modeFunc adapts a closure to ModeSource.
type modeFunc func() policy.Mode

func (f modeFunc) Mode() policy.Mode { return f() }

func TestStatsAccounting(t *testing.T) {
	e := newEngine(t, "Normal")
	e.Decide(canbus.Read, frame(0x100))  // grant
	e.Decide(canbus.Read, frame(0x101))  // block
	e.Decide(canbus.Write, frame(0x200)) // grant
	e.Decide(canbus.Write, frame(0x201)) // block
	st := e.Stats()
	if st.Decisions != 4 || st.ReadsGranted != 1 || st.ReadsBlocked != 1 ||
		st.WritesGranted != 1 || st.WritesBlocked != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cycles != 4*CyclesPerDecision {
		t.Errorf("cycles = %d", st.Cycles)
	}
	if st.Installs != 1 {
		t.Errorf("installs = %d", st.Installs)
	}
}

func TestCycleModel(t *testing.T) {
	if CyclesPerDecision != 4 {
		t.Errorf("CyclesPerDecision = %d, want 4", CyclesPerDecision)
	}
	if ns := LatencyNanos(CyclesPerDecision); ns != 40 {
		t.Errorf("latency = %v ns, want 40 (4 cycles @ 100MHz)", ns)
	}
}

func TestInstallRejectsNil(t *testing.T) {
	e := New("ecu", FixedMode("Normal"))
	if err := e.Install(nil); err == nil {
		t.Error("nil compile accepted")
	}
}

func TestNewPanicsOnNilModeSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil ModeSource accepted")
		}
	}()
	New("ecu", nil)
}

func TestHotSwapTables(t *testing.T) {
	e := newEngine(t, "Normal")
	if e.Decide(canbus.Read, frame(0x300)) != canbus.Block {
		t.Fatal("0x300 granted before update")
	}
	v2 := compiled(t, `policy "p" version 2 {
  allow read 0x100, 0x300 at ecu
  allow write 0x200 at ecu
}`, []string{"ecu"}, []policy.Mode{"Normal", "Diag"})
	if err := e.Install(v2); err != nil {
		t.Fatal(err)
	}
	if e.Decide(canbus.Read, frame(0x300)) != canbus.Grant {
		t.Error("0x300 blocked after update")
	}
	if e.Decide(canbus.Read, frame(0x100)) != canbus.Grant {
		t.Error("0x100 regressed after update")
	}
}

func TestDeploy(t *testing.T) {
	sched := &sim.Scheduler{}
	bus := canbus.New(sched, canbus.Config{})
	bus.MustAttach("ecu")
	bus.MustAttach("sensors")
	c := compiled(t, `policy "p" version 1 {
  allow read 0x100 at ecu
  allow write 0x100 at sensors
}`, []string{"ecu", "sensors"}, []policy.Mode{"Normal"})

	engines, err := Deploy(bus, c, FixedMode("Normal"), "ecu", "sensors")
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != 2 {
		t.Fatalf("deployed %d engines", len(engines))
	}

	// End-to-end: sensors may send 0x100, ecu receives; 0x200 is blocked at
	// the sensors' write filter.
	sensors, _ := bus.Node("sensors")
	ecu, _ := bus.Node("ecu")
	got := 0
	ecu.Controller().SetHandler(func(canbus.Frame) { got++ })
	if err := sensors.Send(frame(0x100)); err != nil {
		t.Fatal(err)
	}
	if err := sensors.Send(frame(0x200)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if got != 1 {
		t.Errorf("ecu received %d frames, want 1", got)
	}
	if st := engines["sensors"].Stats(); st.WritesBlocked != 1 {
		t.Errorf("sensors WritesBlocked = %d", st.WritesBlocked)
	}

	if _, err := Deploy(bus, c, FixedMode("Normal"), "ghost"); err == nil {
		t.Error("Deploy accepted unknown node")
	}
}
