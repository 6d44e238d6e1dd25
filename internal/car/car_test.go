package car

import (
	"testing"
	"time"

	"repro/internal/canbus"
)

func TestInitialState(t *testing.T) {
	c := MustNew(Config{})
	s := c.State()
	if !s.Propulsion || !s.EPSActive || !s.EngineRunning || !s.ModemEnabled || !s.TrackingActive {
		t.Errorf("initial state wrong: %+v", s)
	}
	if s.DoorsLocked || s.AlarmArmed || s.FailSafeTriggered {
		t.Errorf("initial state wrong: %+v", s)
	}
	if c.Mode() != ModeNormal {
		t.Errorf("initial mode = %v", c.Mode())
	}
}

func TestTopologyMatchesFig2(t *testing.T) {
	c := MustNew(Config{})
	probe := c.Bus().MustAttach("probe")
	if err := probe.Send(canbus.MustDataFrame(0x7FF, nil)); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	for _, name := range AllNodes {
		n, ok := c.Node(name)
		if !ok {
			t.Errorf("node %s missing from bus", name)
			continue
		}
		if seen := n.Stats().RxSeen; seen != 1 {
			t.Errorf("node %s saw %d broadcasts, want 1", name, seen)
		}
	}
}

func TestLockUnlockDoors(t *testing.T) {
	c := MustNew(Config{})
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().DoorsLocked {
		t.Fatal("doors not locked")
	}
	if err := c.UnlockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.State().DoorsLocked {
		t.Fatal("doors not unlocked")
	}
}

func TestCrashResponse(t *testing.T) {
	c := MustNew(Config{})
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if err := c.TriggerCrash(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	s := c.State()
	if !s.FailSafeTriggered {
		t.Error("fail-safe not triggered")
	}
	if s.Propulsion {
		t.Error("propulsion not cut on crash")
	}
	if s.DoorsLocked {
		t.Error("doors not unlocked for rescue access")
	}
}

func TestObstacleStopAndRestore(t *testing.T) {
	c := MustNew(Config{})
	if err := c.ObstacleStop(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.State().Propulsion {
		t.Fatal("obstacle report did not stop propulsion")
	}
	if err := c.RestorePropulsion(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().Propulsion {
		t.Fatal("propulsion not restored")
	}
}

func TestArmAlarm(t *testing.T) {
	c := MustNew(Config{})
	if err := c.ArmAlarm(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().AlarmArmed {
		t.Error("alarm not armed")
	}
}

func TestModeSwitching(t *testing.T) {
	c := MustNew(Config{})
	for _, m := range AllModes {
		c.SetMode(m)
		if c.Mode() != m {
			t.Errorf("mode = %v after SetMode(%v)", c.Mode(), m)
		}
	}
}

func TestPeriodicTraffic(t *testing.T) {
	c := MustNew(Config{})
	c.StartTraffic(10*time.Millisecond, 100*time.Millisecond, 72)
	c.Scheduler().RunUntil(200 * time.Millisecond)
	s := c.State()
	if s.ActualSpeed != 72 {
		t.Errorf("ActualSpeed = %d, want 72", s.ActualSpeed)
	}
	if s.DisplayedSpeed != 72 {
		t.Errorf("DisplayedSpeed = %d, want 72", s.DisplayedSpeed)
	}
	st := c.Bus().Stats()
	// 10 rounds x 4 messages (speed, dynamics, status, tracking).
	if st.FramesDelivered != 40 {
		t.Errorf("FramesDelivered = %d, want 40", st.FramesDelivered)
	}
	if u := c.Bus().Utilisation(); u <= 0 || u >= 1 {
		t.Errorf("utilisation = %v, want in (0,1)", u)
	}
}

func TestTrafficStopsTrackingWhenModemDown(t *testing.T) {
	c := MustNew(Config{})
	// Disable the modem via the legitimate diagnostic path.
	c.SetMode(ModeRemoteDiag)
	diag, _ := c.Node(NodeDiagnostics)
	f, err := frameForTest(IDModemControl, OpDisable)
	if err != nil {
		t.Fatal(err)
	}
	if err := diag.Send(f); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.State().ModemEnabled {
		t.Fatal("modem still enabled")
	}
	before := c.Bus().Stats().FramesDelivered
	c.StartTraffic(10*time.Millisecond, 50*time.Millisecond, 10)
	c.Scheduler().Run()
	delivered := c.Bus().Stats().FramesDelivered - before
	// 5 rounds x 3 messages (no tracking reports with the modem down).
	if delivered != 15 {
		t.Errorf("delivered = %d, want 15 (tracking suppressed)", delivered)
	}
}

func TestSpoofedStatusReachesDisplayWithoutEnforcement(t *testing.T) {
	// Sanity for the INFO-2 scenario mechanics: a forged vehicle-status
	// frame changes the display but not the ground truth.
	c := MustNew(Config{})
	c.StartTraffic(10*time.Millisecond, 20*time.Millisecond, 100)
	c.Scheduler().Run()
	tele, _ := c.Node(NodeTelematics)
	tele.Controller().CompromiseFilters()
	f, err := frameForTest(IDVehicleStatus, 0x00, 0x05)
	if err != nil {
		t.Fatal(err)
	}
	if err := tele.Send(f); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	s := c.State()
	if s.DisplayedSpeed != 5 || s.ActualSpeed != 100 {
		t.Errorf("display=%d actual=%d, want 5/100", s.DisplayedSpeed, s.ActualSpeed)
	}
}
