package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/mac"
	"repro/internal/policy"
)

// entropy is a deterministic reader for test key generation.
type entropy byte

func (e entropy) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e) + byte(i)
	}
	return len(p), nil
}

func buildModel(t *testing.T, version uint64) *SecurityModel {
	t.Helper()
	m, err := BuildModel(car.UseCase(), car.Threats(), "table-i", version)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildModelProducesBothStyles(t *testing.T) {
	m := buildModel(t, 1)
	if len(m.Analysis.Threats) != 16 {
		t.Errorf("threats = %d", len(m.Analysis.Threats))
	}
	if len(m.Guidelines.Guidelines) != 16 {
		t.Errorf("guidelines = %d", len(m.Guidelines.Guidelines))
	}
	if m.Policies.Name != "table-i" || m.Policies.Version != 1 {
		t.Errorf("policy header %s/%d", m.Policies.Name, m.Policies.Version)
	}
	if len(m.Restrictions) != 16 {
		t.Errorf("restrictions = %d", len(m.Restrictions))
	}
}

func TestOEMIssueAndDeviceUpdateRoundTrip(t *testing.T) {
	oem, err := NewOEM(entropy(1))
	if err != nil {
		t.Fatal(err)
	}
	m := buildModel(t, 1)
	bundle, err := oem.Issue(m.Policies)
	if err != nil {
		t.Fatal(err)
	}

	c := car.MustNew(car.Config{})
	dev, err := Provision(c.Bus(), c, oem.PublicKey(), car.AllNodes, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PolicyVersion() != 0 {
		t.Errorf("pre-install version = %d", dev.PolicyVersion())
	}

	// Fail-closed before install: even legitimate traffic is blocked.
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.State().DoorsLocked {
		t.Error("engines not fail-closed before first policy install")
	}

	if err := dev.ApplyUpdate(bundle); err != nil {
		t.Fatal(err)
	}
	if dev.PolicyVersion() != 1 {
		t.Errorf("version = %d", dev.PolicyVersion())
	}
	// Legitimate traffic flows after install.
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().DoorsLocked {
		t.Error("legitimate traffic blocked after install")
	}
	eng, ok := dev.engines[car.NodeEVECU]
	if !ok || eng.Stats().Installs == 0 {
		t.Error("engine not installed via store subscription")
	}
}

func TestDeviceRejectsForgedUpdate(t *testing.T) {
	oem, _ := NewOEM(entropy(1))
	mallory, _ := NewOEM(entropy(99))
	m := buildModel(t, 1)
	forged, err := mallory.Issue(m.Policies)
	if err != nil {
		t.Fatal(err)
	}
	c := car.MustNew(car.Config{})
	dev, err := Provision(c.Bus(), c, oem.PublicKey(), car.AllNodes, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ApplyUpdate(forged); err == nil {
		t.Error("device accepted a forgery")
	}
	if dev.PolicyVersion() != 0 {
		t.Error("forged update installed")
	}
}

func TestProvisionUnknownNode(t *testing.T) {
	c := car.MustNew(car.Config{})
	oem, _ := NewOEM(entropy(1))
	if _, err := Provision(c.Bus(), c, oem.PublicKey(), []string{"ghost"}, car.AllModes); err == nil {
		t.Error("unknown node accepted")
	}
}

// TestPolicyUpdateCountersNewThreat is the end-to-end §V-A.2 walkthrough:
// v1 policy ships with a hole, the attack succeeds; the OEM issues v2; the
// same attack is blocked without touching device firmware.
func TestPolicyUpdateCountersNewThreat(t *testing.T) {
	oem, _ := NewOEM(entropy(7))

	// v1: the analysis missed the infotainment->modem threat, so the OEM
	// over-permissively granted infotainment a write on modem-control.
	m := buildModel(t, 1)
	v1 := *m.Policies
	v1.Rules = append(v1.Rules,
		policy.Rule{
			Name:    "legacy infotainment volume-ducking hook",
			Subject: car.NodeInfotainment,
			Effect:  policy.Allow,
			Action:  policy.ActWrite,
			IDs:     policy.SingleID(car.IDModemControl),
		},
		policy.Rule{
			Name:    "legacy always-on modem-control listener",
			Subject: car.NodeTelematics,
			Effect:  policy.Allow,
			Action:  policy.ActRead,
			IDs:     policy.SingleID(car.IDModemControl),
		})

	run := func(dev *Device, c *car.Car) bool {
		sc, ok := attack.ScenarioFor(car.ThreatConnModemOffEmg)
		if !ok {
			t.Fatal("scenario missing")
		}
		node, _ := c.Node(sc.Attacker)
		node.Controller().CompromiseFilters()
		c.SetMode(sc.Mode)
		for _, inj := range sc.Injections {
			f, err := canbus.NewDataFrame(inj.ID, inj.Data)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < inj.Repeat; i++ {
				_ = node.Send(f)
			}
		}
		c.Scheduler().Run()
		return sc.Succeeded(c.State())
	}

	// Deployment with v1: attack succeeds (new threat discovered).
	c1 := car.MustNew(car.Config{})
	dev1, err := Provision(c1.Bus(), c1, oem.PublicKey(), car.AllNodes, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := oem.Issue(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev1.ApplyUpdate(b1); err != nil {
		t.Fatal(err)
	}
	if !run(dev1, c1) {
		t.Fatal("precondition: v1 policy should leave the threat open")
	}

	// v2 drops the over-permissive rule: same device family, policy update
	// only. The attack is now blocked.
	m2 := buildModel(t, 2)
	b2, err := oem.Issue(m2.Policies)
	if err != nil {
		t.Fatal(err)
	}
	c2 := car.MustNew(car.Config{})
	dev2, err := Provision(c2.Bus(), c2, oem.PublicKey(), car.AllNodes, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev2.ApplyUpdate(b1); err != nil {
		t.Fatal(err)
	}
	if err := dev2.ApplyUpdate(b2); err != nil {
		t.Fatal(err)
	}
	if dev2.PolicyVersion() != 2 {
		t.Fatalf("version = %d", dev2.PolicyVersion())
	}
	if run(dev2, c2) {
		t.Error("v2 policy update did not counter the new threat")
	}
}

// TestApplyUpdateMidTraffic swaps the policy from a scheduler event while
// periodic traffic flows, the way a vehicle takes an update in the field:
// every frame of the identifier only v2 allows is blocked before the swap
// instant and delivered after it, a flow both versions allow loses no
// frame across the swap, and each engine counts exactly one more install.
func TestApplyUpdateMidTraffic(t *testing.T) {
	const (
		tap     = "Tap"
		newID   = 0x6A0
		period  = time.Millisecond
		horizon = 20 * time.Millisecond
		swapAt  = 10*time.Millisecond + period/2
	)
	c := car.MustNew(car.Config{})
	tapNode, err := c.Bus().Attach(tap)
	if err != nil {
		t.Fatal(err)
	}
	subjects := append(append([]string(nil), car.AllNodes...), tap)
	oem, _ := NewOEM(entropy(5))
	dev, err := Provision(c.Bus(), c, oem.PublicKey(), subjects, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}

	v1 := *buildModel(t, 1).Policies
	v1.Rules = append(append([]policy.Rule(nil), v1.Rules...), policy.Rule{
		Name: "tap listens to speed", Subject: tap, Effect: policy.Allow,
		Action: policy.ActRead, IDs: policy.SingleID(car.IDSensorSpeed),
	})
	v2 := v1
	v2.Version = 2
	v2.Rules = append(append([]policy.Rule(nil), v1.Rules...),
		policy.Rule{Name: "sensors publish new id", Subject: car.NodeSensors,
			Effect: policy.Allow, Action: policy.ActWrite, IDs: policy.SingleID(newID)},
		policy.Rule{Name: "tap listens to new id", Subject: tap,
			Effect: policy.Allow, Action: policy.ActRead, IDs: policy.SingleID(newID)})
	b1, err := oem.Issue(&v1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := oem.Issue(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ApplyUpdate(b1); err != nil {
		t.Fatal(err)
	}
	installs := map[string]uint64{}
	for _, n := range subjects {
		installs[n] = dev.engines[n].Stats().Installs
	}

	var speedFrames int
	var delivered []byte // sequence numbers of the new-ID frames Tap received
	tapNode.Controller().SetHandler(func(f canbus.Frame) {
		switch f.ID {
		case car.IDSensorSpeed:
			speedFrames++
		case newID:
			delivered = append(delivered, f.Data[0])
		}
	})
	sensors, _ := c.Node(car.NodeSensors)
	var want []byte    // sent after the swap
	var sentBefore int // sent before it
	for seq := byte(1); time.Duration(seq)*period <= horizon; seq++ {
		at := time.Duration(seq) * period
		if at > swapAt {
			want = append(want, seq)
		} else {
			sentBefore++
		}
		f := canbus.MustDataFrame(newID, []byte{seq})
		c.Scheduler().At(at, func(time.Duration) { _ = sensors.Send(f) })
	}
	c.StartTraffic(2*period, horizon, 30)
	var applyErr error
	c.Scheduler().At(swapAt, func(time.Duration) { applyErr = dev.ApplyUpdate(b2) })
	c.Scheduler().Run()

	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if dev.PolicyVersion() != 2 {
		t.Fatalf("version = %d after the mid-traffic update, want 2", dev.PolicyVersion())
	}
	if string(delivered) != string(want) {
		t.Errorf("new-ID frames delivered %v, want exactly those sent after %v: %v",
			delivered, swapAt, want)
	}
	if blocked := sensors.Stats().TxBlocked; blocked != uint64(sentBefore) {
		t.Errorf("sensors blocked %d new-ID writes, want the %d sent before the swap",
			blocked, sentBefore)
	}
	if wantSpeed := int(horizon / (2 * period)); speedFrames != wantSpeed {
		t.Errorf("Tap received %d speed frames across the swap, want %d", speedFrames, wantSpeed)
	}
	for _, n := range subjects {
		if got := dev.engines[n].Stats().Installs; got != installs[n]+1 {
			t.Errorf("%s: Installs = %d after the update, want %d", n, got, installs[n]+1)
		}
	}
}

func TestDeriveMACModule(t *testing.T) {
	m := buildModel(t, 1)
	mod, err := DeriveMACModule(m.Analysis, "car-base", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := mac.NewServer()
	if err := srv.Load(mod); err != nil {
		t.Fatal(err)
	}
	// Telematics may write tracking reports...
	d := srv.Check(MACContext(car.NodeTelematics), MessageContext(car.IDTrackingReport),
		MACClassCAN, MACPermWrite)
	if !d.Allowed {
		t.Error("legitimate MAC flow denied")
	}
	// ...infotainment may not.
	d = srv.Check(MACContext(car.NodeInfotainment), MessageContext(car.IDTrackingReport),
		MACClassCAN, MACPermWrite)
	if d.Allowed {
		t.Error("illegitimate MAC flow allowed")
	}
	// Kernel compromise bypasses the software layer (the §V-B.2 contrast).
	srv.CompromiseKernel()
	d = srv.Check(MACContext(car.NodeInfotainment), MessageContext(car.IDTrackingReport),
		MACClassCAN, MACPermWrite)
	if !d.Allowed || !d.Bypassed {
		t.Error("kernel compromise should bypass the software MAC")
	}
}

// TestMACAndHPEConsistency: the software module and the hardware tables are
// derived from the same analysis and must agree on every declared flow.
func TestMACAndHPEConsistency(t *testing.T) {
	m := buildModel(t, 1)
	mod, err := DeriveMACModule(m.Analysis, "car-base", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := mac.NewServer()
	if err := srv.Load(mod); err != nil {
		t.Fatal(err)
	}
	// Note: the MAC module is mode-unaware (application layer), so compare
	// against the union over modes of the compiled policy.
	compiled, err := policy.Compile(m.Policies, policy.CompileOptions{
		Subjects: car.AllNodes, Modes: car.AllModes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range car.Catalog {
		for _, n := range car.AllNodes {
			macRead := srv.Check(MACContext(n), MessageContext(msg.ID), MACClassCAN, MACPermRead).Allowed
			macWrite := srv.Check(MACContext(n), MessageContext(msg.ID), MACClassCAN, MACPermWrite).Allowed
			var hwRead, hwWrite bool
			nt := compiled.Node(n)
			for _, mode := range car.AllModes {
				mt := nt.Table(mode)
				hwRead = hwRead || mt.Reads.Contains(msg.ID)
				hwWrite = hwWrite || mt.Writes.Contains(msg.ID)
			}
			if macRead != hwRead || macWrite != hwWrite {
				t.Errorf("MAC/HPE disagree on %s at %s: mac r/w=%v/%v hw=%v/%v",
					msg.Name, n, macRead, macWrite, hwRead, hwWrite)
			}
		}
	}
}

func TestMACContextShapes(t *testing.T) {
	c := MACContext("EV-ECU")
	if c.Type != "node_EV-ECU_t" {
		t.Errorf("context type = %q", c.Type)
	}
	mc := MessageContext(0x10)
	if mc.Type != "can_msg_010_t" {
		t.Errorf("message type = %q", mc.Type)
	}
}

func TestNewOEMErrorPath(t *testing.T) {
	if _, err := NewOEM(badReader{}); err == nil {
		t.Error("key generation from failing reader succeeded")
	}
}

type badReader struct{}

func (badReader) Read([]byte) (int, error) { return 0, bytes.ErrTooLarge }
