package behaviour

import (
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/hpe"
	"repro/internal/policy"
	"repro/internal/threatmodel"
)

func frame(id uint32) canbus.Frame { return canbus.MustDataFrame(id, []byte{1}) }

// tickClock is a manually advanced Clock.
type tickClock struct{ now time.Duration }

func (c *tickClock) Clock() Clock { return func() time.Duration { return c.now } }

func TestSituationalDeny(t *testing.T) {
	inMotion := false
	e := New(nil, nil)
	err := e.AddRule(&SituationalDeny{
		Label:     "no-unlock-in-motion",
		When:      SituationFunc{Name: "in motion", Fn: func() bool { return inMotion }},
		Direction: canbus.Read,
		IDs:       policy.SingleID(0x200),
	})
	if err != nil {
		t.Fatal(err)
	}

	if e.Decide(canbus.Read, frame(0x200)) != canbus.Grant {
		t.Error("blocked while situation does not hold")
	}
	inMotion = true
	if e.Decide(canbus.Read, frame(0x200)) != canbus.Block {
		t.Error("granted while situation holds")
	}
	// Other IDs and the other direction are untouched.
	if e.Decide(canbus.Read, frame(0x201)) != canbus.Grant {
		t.Error("unrelated ID blocked")
	}
	if e.Decide(canbus.Write, frame(0x200)) != canbus.Grant {
		t.Error("unrelated direction blocked")
	}
	st := e.Stats()
	if st.RuleBlocked["no-unlock-in-motion"] != 1 || st.Granted != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRateLimitSlidingWindow(t *testing.T) {
	clk := &tickClock{}
	e := New(nil, clk.Clock())
	err := e.AddRule(&RateLimit{
		Label:        "ecu-cmd-budget",
		Direction:    canbus.Write,
		IDs:          policy.SingleID(0x10),
		MaxPerWindow: 3,
		Window:       time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three grants within the window, then blocks.
	for i := 0; i < 3; i++ {
		clk.now += 100 * time.Millisecond
		if e.Decide(canbus.Write, frame(0x10)) != canbus.Grant {
			t.Fatalf("grant %d refused", i)
		}
	}
	clk.now += 100 * time.Millisecond
	if e.Decide(canbus.Write, frame(0x10)) != canbus.Block {
		t.Fatal("budget not enforced")
	}
	// Window slides: after the first grant ages out, one more passes.
	clk.now = 1150 * time.Millisecond // first grant at 100ms is now outside
	if e.Decide(canbus.Write, frame(0x10)) != canbus.Grant {
		t.Fatal("window did not slide")
	}
	// Unrelated IDs unaffected even while saturated.
	if e.Decide(canbus.Write, frame(0x11)) != canbus.Grant {
		t.Error("unrelated ID rate-limited")
	}
}

func TestRuleValidation(t *testing.T) {
	e := New(nil, nil)
	cases := []Rule{
		&SituationalDeny{}, // empty
		&SituationalDeny{Label: "x", Direction: canbus.Read},                     // no situation
		&RateLimit{Label: "r", Direction: canbus.Write},                          // no ids
		&RateLimit{Label: "r", Direction: canbus.Write, IDs: policy.SingleID(1)}, // no budget
		&RateLimit{Label: "r", Direction: canbus.Write, IDs: policy.SingleID(1),
			MaxPerWindow: 1}, // no window
	}
	for i, r := range cases {
		if err := e.AddRule(r); err == nil {
			t.Errorf("case %d: invalid rule accepted", i)
		}
	}
}

func TestDuplicateRuleRejected(t *testing.T) {
	e := New(nil, nil)
	mk := func() Rule {
		return &SituationalDeny{Label: "dup",
			When:      SituationFunc{Name: "s", Fn: func() bool { return false }},
			Direction: canbus.Read, IDs: policy.SingleID(1)}
	}
	if err := e.AddRule(mk()); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(mk()); err == nil {
		t.Error("duplicate rule accepted")
	}
}

func TestBaseLayerConsultedFirst(t *testing.T) {
	base := blockAll{}
	e := New(base, nil)
	if e.Decide(canbus.Read, frame(1)) != canbus.Block {
		t.Fatal("base verdict ignored")
	}
	st := e.Stats()
	if st.BaseBlocked != 1 {
		t.Errorf("BaseBlocked = %d", st.BaseBlocked)
	}
}

type blockAll struct{}

func (blockAll) Decide(canbus.Direction, canbus.Frame) canbus.Verdict { return canbus.Block }

// TestCredentialAbuseScenario is the extension's motivating end-to-end
// case: a compromised Telematics unit abuses its *legitimate* remote-unlock
// credential while the car is moving. The identifier-level HPE must grant
// it (telematics is an approved writer of door commands in Normal mode);
// the situational layer on the door-lock node blocks it; a parked unlock
// still works.
func TestCredentialAbuseScenario(t *testing.T) {
	c := car.MustNew(car.Config{})
	analysis, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	set, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := policy.Compile(set, policy.CompileOptions{
		Subjects: car.AllNodes, Modes: car.AllModes,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines, err := hpe.Deploy(c.Bus(), compiled, c, hpe.DefaultCycleModel(), car.AllNodes...)
	if err != nil {
		t.Fatal(err)
	}

	// Wrap the door-lock node's HPE with the situational layer.
	doors, _ := c.Node(car.NodeDoorLocks)
	wrapped := New(engines[car.NodeDoorLocks], c.Scheduler().Now)
	err = wrapped.AddRule(&SituationalDeny{
		Label: "no-unlock-in-motion",
		When: SituationFunc{Name: "vehicle in motion", Fn: func() bool {
			return c.State().ActualSpeed > 0
		}},
		Direction: canbus.Read,
		IDs:       policy.SingleID(car.IDDoorCommand),
	})
	if err != nil {
		t.Fatal(err)
	}
	doors.SetInlineFilter(wrapped)

	// Parked: remote lock then unlock both work.
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().DoorsLocked {
		t.Fatal("parked lock failed")
	}
	if err := c.UnlockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.State().DoorsLocked {
		t.Fatal("parked unlock blocked (false positive)")
	}

	// Driving: lock first, then the abused credential tries to unlock.
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	c.StartTraffic(time.Millisecond, 5*time.Millisecond, 60) // speed 60
	c.Scheduler().Run()
	if c.State().ActualSpeed != 60 {
		t.Fatal("speed not established")
	}
	if err := c.UnlockDoors(); err != nil { // legitimate credential, abused
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().DoorsLocked {
		t.Fatal("in-motion unlock succeeded despite situational rule")
	}
	if wrapped.Stats().RuleBlocked["no-unlock-in-motion"] == 0 {
		t.Error("situational rule did not record the block")
	}
}

// TestFloodingScenario: a compromised sensor floods its own legitimate
// speed broadcast. The identifier layer grants every frame; the rate rule
// caps the flood.
func TestFloodingScenario(t *testing.T) {
	c := car.MustNew(car.Config{})
	sensors, _ := c.Node(car.NodeSensors)
	limiter := New(canbus.PermissiveFilter{}, c.Scheduler().Now)
	err := limiter.AddRule(&RateLimit{
		Label:        "speed-broadcast-budget",
		Direction:    canbus.Write,
		IDs:          policy.SingleID(car.IDSensorSpeed),
		MaxPerWindow: 10,
		Window:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sensors.SetInlineFilter(limiter)

	f := canbus.MustDataFrame(car.IDSensorSpeed, []byte{0, 50})
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Millisecond
		c.Scheduler().At(at, func(time.Duration) { _ = sensors.Send(f.Clone()) })
	}
	c.Scheduler().Run()
	st := sensors.Stats()
	if st.TxBlocked == 0 {
		t.Fatal("flood not limited")
	}
	// 100 attempts over 100 ms at 10-per-100ms: roughly 10-11 pass.
	if st.TxCompleted > 15 {
		t.Errorf("flood passed %d frames, budget ~10", st.TxCompleted)
	}
	if st.TxCompleted == 0 {
		t.Error("legitimate broadcasts fully starved")
	}
}

func TestEngineStatsSnapshotIsolated(t *testing.T) {
	e := New(nil, nil)
	st := e.Stats()
	st.RuleBlocked["injected"] = 99
	if e.Stats().RuleBlocked["injected"] != 0 {
		t.Error("Stats exposes internal map")
	}
}

// TestEngineResetRestoresFreshDecisions drives a rate-limited engine to
// exhaustion on a clock that then restarts (the pooled-arena pattern: the
// scheduler resets to time zero between runs): without Reset the stale
// window keeps blocking; after Reset the engine must decide exactly like a
// freshly built one.
func TestEngineResetRestoresFreshDecisions(t *testing.T) {
	clk := &tickClock{}
	e := New(nil, clk.Clock())
	if err := e.AddRule(&RateLimit{
		Label:        "budget",
		Direction:    canbus.Write,
		IDs:          policy.SingleID(0x123),
		MaxPerWindow: 2,
		Window:       10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	f := frame(0x123)
	for i := 0; i < 5; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		e.Decide(canbus.Write, f)
	}
	if e.Stats().RuleBlocked["budget"] != 3 {
		t.Fatalf("expected 3 budget blocks, got %d", e.Stats().RuleBlocked["budget"])
	}

	// Virtual clock restarts; the stale window must not leak through Reset.
	clk.now = 0
	e.Reset()
	if got := e.Stats(); got.Decisions != 0 || len(got.RuleBlocked) != 0 {
		t.Fatalf("Reset left counters behind: %+v", got)
	}
	if e.Decide(canbus.Write, f) != canbus.Grant {
		t.Error("reset engine blocked the first post-reset frame")
	}
	// The budget rule survives Reset: its second post-reset grant spends
	// the window, and the next frame is vetoed.
	e.Decide(canbus.Write, f)
	if e.Decide(canbus.Write, f) != canbus.Block {
		t.Error("Reset must keep installed rules: the budget no longer vetoes")
	}
}

// TestDecideAllocFree pins Decide at zero allocations on its grant path
// and on both veto paths, a situational deny and a spent rate budget: the
// guard sits on the per-frame path of every node in a behaviour-regime
// sweep, where one allocation per decision puts the garbage collector in
// the loop.
func TestDecideAllocFree(t *testing.T) {
	e := New(nil, (&tickClock{}).Clock())
	if err := e.AddRule(&RateLimit{
		Label:        "budget",
		Direction:    canbus.Write,
		IDs:          policy.SingleID(0x123),
		MaxPerWindow: 2,
		Window:       10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(&SituationalDeny{
		Label:     "parked-only",
		When:      SituationFunc{Name: "moving", Fn: func() bool { return true }},
		Direction: canbus.Write,
		IDs:       policy.SingleID(0x125),
	}); err != nil {
		t.Fatal(err)
	}
	limited := frame(0x123)
	for i := 0; i < 2; i++ { // spend the budget; the clock never moves
		if e.Decide(canbus.Write, limited) != canbus.Grant {
			t.Fatal("budget refused a frame inside it")
		}
	}
	const runs = 200
	for _, c := range []struct {
		path string
		f    canbus.Frame
		want canbus.Verdict
	}{
		{"grant", frame(0x124), canbus.Grant},
		{"rate veto", limited, canbus.Block},
		{"situational veto", frame(0x125), canbus.Block},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			if got := e.Decide(canbus.Write, c.f); got != c.want {
				t.Fatalf("%s path: Decide = %v, want %v", c.path, got, c.want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f objects/op, want 0", c.path, allocs)
		}
	}
	// AllocsPerRun makes one warm-up call before its runs.
	st := e.Stats()
	if st.Granted != 2+runs+1 || st.RuleBlocked["budget"] != runs+1 ||
		st.RuleBlocked["parked-only"] != runs+1 {
		t.Errorf("stats = %+v", st)
	}
}
