// Integration tests exercising the full stack across module boundaries:
// modelling -> policy -> signing -> provisioning -> bus traffic -> attack ->
// update, in single flows that no package-level test covers end to end.
package repro_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/behaviour"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/hpe"
	"repro/internal/lifecycle"
	"repro/internal/mac"
	"repro/internal/policy"
	"repro/internal/report"
)

// -update rewrites the goldens checked by checkGolden from the current output:
//
//	go test . -run 'Golden|DeterministicReplay' -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got with the golden file at path byte for byte,
// ignoring one trailing newline on either side.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	got = strings.TrimSuffix(got, "\n")
	if *update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSuffix(string(want), "\n") {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// testEntropy yields deterministic bytes for key generation.
type testEntropy byte

func (e testEntropy) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e) + byte(i*3)
	}
	return len(p), nil
}

// TestFullProductLifecycle walks the entire Fig. 1 story in one flow:
// model, derive, sign, provision, verify legitimate operation, run an
// attack, and confirm the update path.
func TestFullProductLifecycle(t *testing.T) {
	// Design time: threat modelling and both countermeasure styles.
	model, err := core.BuildModel(car.UseCase(), car.Threats(), "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Analysis.Threats) != 16 {
		t.Fatalf("threats = %d", len(model.Analysis.Threats))
	}

	// The derived policy round-trips through its own DSL.
	reparsed, err := policy.Parse(model.Policies.String())
	if err != nil {
		t.Fatalf("derived policy does not reparse: %v", err)
	}
	if len(reparsed.Rules) != len(model.Policies.Rules) {
		t.Fatal("derived policy lost rules through the DSL")
	}

	// Manufacturing: provision the device with the OEM key.
	oem, err := core.NewOEM(testEntropy(11))
	if err != nil {
		t.Fatal(err)
	}
	c := car.MustNew(car.Config{})
	dev, err := core.Provision(c.Bus(), c, oem.PublicKey(), car.AllNodes, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := oem.Issue(model.Policies)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ApplyUpdate(bundle); err != nil {
		t.Fatal(err)
	}

	// In the field: normal operation under enforcement.
	c.StartTraffic(time.Millisecond, 50*time.Millisecond, 65)
	c.Scheduler().Run()
	s := c.State()
	if s.ActualSpeed != 65 || s.DisplayedSpeed != 65 {
		t.Fatalf("telemetry broken under enforcement: %+v", s)
	}
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().DoorsLocked {
		t.Fatal("legitimate remote lock blocked")
	}

	// Crash: the fail-safe path must work under enforcement too.
	if err := c.TriggerCrash(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	s = c.State()
	if !s.FailSafeTriggered || s.Propulsion || s.DoorsLocked {
		t.Fatalf("crash response broken under enforcement: %+v", s)
	}

	// Attack in the field: compromised infotainment tries the EPS.
	c.SetMode(car.ModeNormal)
	info, _ := c.Node(car.NodeInfotainment)
	info.Controller().CompromiseFilters()
	if err := info.Send(canbus.MustDataFrame(car.IDEPSCommand, []byte{car.OpDisable})); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().EPSActive {
		t.Fatal("EPS attack succeeded under installed policy")
	}

	// Post-deployment: an update supersedes the installed version.
	model2, err := core.BuildModel(car.UseCase(), car.Threats(), "table-i", 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := oem.Issue(model2.Policies)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ApplyUpdate(b2); err != nil {
		t.Fatal(err)
	}
	if dev.PolicyVersion() != 2 {
		t.Fatalf("version = %d", dev.PolicyVersion())
	}
}

// TestDefenceInDepthLayers stacks all three enforcement layers on one
// vehicle — software MAC, identifier HPE, situational rules — and checks
// each catches exactly the class it is responsible for.
func TestDefenceInDepthLayers(t *testing.T) {
	model, err := core.BuildModel(car.UseCase(), car.Threats(), "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Layer 1: software MAC for application-level requests.
	srv := mac.NewServer()
	module, err := core.DeriveMACModule(model.Analysis, "car-base", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Load(module); err != nil {
		t.Fatal(err)
	}
	// The infotainment app asks its OS to transmit a tracking report: the
	// MAC denies before anything reaches the bus.
	d := srv.Check(core.MACContext(car.NodeInfotainment),
		core.MessageContext(car.IDTrackingReport), core.MACClassCAN, core.MACPermWrite)
	if d.Allowed {
		t.Fatal("MAC layer failed")
	}

	// Layer 2+3: hardware engine plus situational wrap on the car.
	h, err := attack.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	c := car.MustNew(car.Config{})
	engines, err := hpe.Deploy(c.Bus(), h.Compiled, c, hpe.DefaultCycleModel(), car.AllNodes...)
	if err != nil {
		t.Fatal(err)
	}
	doors, _ := c.Node(car.NodeDoorLocks)
	guard := behaviour.New(engines[car.NodeDoorLocks], c.Scheduler().Now)
	if err := guard.AddRule(&behaviour.SituationalDeny{
		Label: "no-unlock-in-motion",
		When: behaviour.SituationFunc{Name: "in motion", Fn: func() bool {
			return c.State().ActualSpeed > 0
		}},
		Direction: canbus.Read,
		IDs:       policy.SingleID(car.IDDoorCommand),
	}); err != nil {
		t.Fatal(err)
	}
	doors.SetInlineFilter(guard)

	// Kernel compromise kills layer 1...
	srv.CompromiseKernel()
	if !srv.Check(core.MACContext(car.NodeInfotainment),
		core.MessageContext(car.IDTrackingReport), core.MACClassCAN, core.MACPermWrite).Allowed {
		t.Fatal("compromised kernel should bypass MAC")
	}
	// ...but layer 2 still blocks the resulting bus traffic.
	info, _ := c.Node(car.NodeInfotainment)
	info.Controller().CompromiseFilters()
	if err := info.Send(canbus.MustDataFrame(car.IDTrackingReport, []byte{0xEE})); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if c.State().ExfilReports != 0 {
		t.Fatal("HPE layer failed after kernel compromise")
	}

	// Layer 3 blocks credential abuse layer 2 must permit.
	if err := c.LockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	c.StartTraffic(time.Millisecond, 5*time.Millisecond, 50)
	c.Scheduler().Run()
	if err := c.UnlockDoors(); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().Run()
	if !c.State().DoorsLocked {
		t.Fatal("situational layer failed")
	}
}

// TestFleetRolloutAcrossRealDevices drives the OEM-side staged rollout
// against a fleet of fully provisioned simulated vehicles, including one
// provisioned with the wrong trust anchor: the canary stage catches it,
// the rollout aborts, and after the bad vehicle is fixed a re-run
// completes idempotently.
func TestFleetRolloutAcrossRealDevices(t *testing.T) {
	oem, err := core.NewOEM(testEntropy(21))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.BuildModel(car.UseCase(), car.Threats(), "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := oem.Issue(model.Policies)
	if err != nil {
		t.Fatal(err)
	}

	const n = 10
	vehicles := make([]fleet.Vehicle, 0, n)
	devices := map[string]*core.Device{}
	cars := map[string]*car.Car{}
	provision := func(vid string, key []byte) {
		c := car.MustNew(car.Config{})
		dev, err := core.Provision(c.Bus(), c, key, car.AllNodes, car.AllModes)
		if err != nil {
			t.Fatal(err)
		}
		devices[vid] = dev
		cars[vid] = c
		vehicles = append(vehicles, core.FleetVehicle{VID: vid, Dev: dev})
	}
	wrongOEM, _ := core.NewOEM(testEntropy(99))
	for i := 0; i < n; i++ {
		vid := fmt.Sprintf("VIN-%03d", i)
		key := oem.PublicKey()
		if i == 0 {
			key = wrongOEM.PublicKey() // mis-provisioned vehicle, sorts first
		}
		provision(vid, key)
	}

	// First rollout: the canary (VIN-000) rejects the signature; abort.
	report, err := fleet.Rollout(vehicles, bundle, fleet.DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Aborted {
		t.Fatalf("mis-provisioned canary did not abort the rollout: %+v", report)
	}
	if report.Applied != 0 {
		t.Errorf("applied before abort = %d", report.Applied)
	}

	// Fix the bad vehicle (re-provision its trust anchor) and re-run: the
	// rollout completes and every device runs v1.
	cFixed := car.MustNew(car.Config{})
	devFixed, err := core.Provision(cFixed.Bus(), cFixed, oem.PublicKey(), car.AllNodes, car.AllModes)
	if err != nil {
		t.Fatal(err)
	}
	devices["VIN-000"] = devFixed
	vehicles[0] = core.FleetVehicle{VID: "VIN-000", Dev: devFixed}

	report, err = fleet.Rollout(vehicles, bundle, fleet.DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if report.Aborted || report.Applied != n {
		t.Fatalf("re-run report = %+v", report)
	}
	for vid, dev := range devices {
		if dev.PolicyVersion() != 1 {
			t.Errorf("%s runs policy v%d, want v1", vid, dev.PolicyVersion())
		}
	}

	// A second identical rollout is a clean no-op (idempotency).
	report, err = fleet.Rollout(vehicles, bundle, fleet.DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if report.Aborted || report.Failed != 0 || report.Applied != n {
		t.Fatalf("idempotent re-run report = %+v", report)
	}
}

// TestArtifactsRenderTogether smoke-checks that every report view renders
// from one shared analysis without panics and with consistent content.
func TestArtifactsRenderTogether(t *testing.T) {
	a, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	tbl := report.TableI(a, car.TableRowOrder)
	topo := report.Topology()
	lc := report.Lifecycle(lifecycle.Pipeline())
	cmp, err := lifecycle.Compare(lifecycle.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	comparison := report.Comparison(cmp, 2, 0.25)
	for i, out := range []string{tbl, topo, lc, comparison} {
		if strings.TrimSpace(out) == "" {
			t.Errorf("artifact %d rendered empty", i)
		}
	}
	// Cross-artifact consistency: every asset in Table I hosts a node shown
	// in the topology.
	for _, asset := range a.UseCase.Assets {
		if !strings.Contains(topo, asset.Node) {
			t.Errorf("asset node %s missing from topology", asset.Node)
		}
	}
}

// TestRiskPipelineEndToEnd drives `carsim -risk` on the shipped example
// threat-model spec exactly as a user would: build the binary, run it, and
// require a zero exit code plus a profile byte-identical to the checked-in
// golden file. The spec pins fleet and root seed, so the deterministic part
// of the output (everything before the wall-clock throughput line) must not
// move with worker count or executor; a bad spec path must exit 1.
func TestRiskPipelineEndToEnd(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "carsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/carsim").CombinedOutput(); err != nil {
		t.Fatalf("build carsim: %v\n%s", err, out)
	}
	const spec = "examples/threatmodels/connected-car.json"

	profile := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-risk", spec}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("carsim -risk %v: %v\n%s", args, err, out)
		}
		body, _, found := strings.Cut(string(out), "\nthroughput:")
		if !found {
			t.Fatalf("no throughput line in output:\n%s", out)
		}
		return body
	}

	got := profile()
	want, err := os.ReadFile("testdata/risk_profile.golden")
	if err != nil {
		t.Fatalf("%v (regenerate with: go run ./cmd/carsim -risk %s, dropping the throughput line)", err, spec)
	}
	if got != strings.TrimSuffix(string(want), "\n") {
		t.Errorf("profile drifted from testdata/risk_profile.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Same profile whatever the parallelism or executor — the determinism
	// contract enforced through the real binary; only the mode marker moves.
	oracle := strings.Replace(got, "mode=batched", "mode=oracle", 1)
	if alt := profile("-workers", "1", "-no-batch"); alt != oracle {
		t.Errorf("profile differs for -workers 1 -no-batch:\n--- default ---\n%s\n--- alt ---\n%s", got, alt)
	}

	// The scenario matrix dump must work and stay sweep-free.
	if out, err := exec.Command(bin, "-risk", spec, "-list-scenarios").CombinedOutput(); err != nil {
		t.Errorf("-list-scenarios failed: %v\n%s", err, out)
	} else if !strings.Contains(string(out), "risk-connected-car") {
		t.Errorf("-list-scenarios output missing campaign name:\n%s", out)
	}

	// Failure path: a missing spec exits 1, not 0 and not a panic.
	err = exec.Command(bin, "-risk", "no-such-spec.json").Run()
	var exit *exec.ExitError
	if err == nil {
		t.Error("missing spec exited 0")
	} else if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("missing spec: %v, want exit code 1", err)
	}
}

// TestFleetReportGolden drives carsim's deterministic report modes and
// requires each output (everything before the wall-clock throughput line,
// where the mode prints one) to match its checked-in golden file byte for
// byte: the Table I fleet sweep, and E1's flood of pre-scheduled frames run
// under RunUntil.
func TestFleetReportGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "carsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/carsim").CombinedOutput(); err != nil {
		t.Fatalf("build carsim: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name       string
		args       []string
		golden     string
		throughput bool // the mode ends in a wall-clock throughput line
	}{
		{"fleet", []string{"-fleet", "8", "-workers", "2", "-seed", "42"}, "testdata/fleet_report.golden", true},
		{"latency", []string{"-latency"}, "testdata/latency.golden", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("carsim %v: %v\n%s", tc.args, err, out)
			}
			got, _, found := strings.Cut(string(out), "\nthroughput:")
			if found != tc.throughput {
				t.Fatalf("throughput line present=%v, want %v:\n%s", found, tc.throughput, out)
			}
			checkGolden(t, tc.golden, got)
		})
	}
}

// TestExamplesGolden runs the five example programs, which drive canbus, mac
// and hpe directly, and pins each one's output (stdout and stderr) to
// testdata/examples/<name>.golden byte for byte.
func TestExamplesGolden(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, name := range []string{"connectedcar", "homeautomation", "policyupdate", "quickstart", "situational"} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			checkGolden(t, filepath.Join("testdata", "examples", name+".golden"), string(out))
		})
	}
}

// TestNoisyFleetGolden pins the live phase vehicle by vehicle: engine.Run
// over 8 Table I vehicles with 2% bus errors and a 250 ms traffic horizon.
// Each vehicle's seed drives its own error injections, so the rendered
// delivered, util and steps columns fix the event order of every live run.
func TestNoisyFleetGolden(t *testing.T) {
	rep, err := engine.Run(engine.Config{
		Fleet:   8,
		Workers: 2,
		Groups: []engine.ScenarioGroup{{
			Scenarios: attack.Scenarios(),
			Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
			RootSeed:  42,
		}},
		TrafficHorizon: 250 * time.Millisecond,
		ErrorRate:      0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/noisy_fleet.golden", rep.String())
}

// TestChaosSupervisorEndToEnd drives carsim's fault-injection surface: a
// recoverable seeded chaos sweep exits 0 with a health line and a payload
// byte-identical to the fault-free run, and an unrecoverable plan exits 3
// after flushing the partial report.
func TestChaosSupervisorEndToEnd(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "carsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/carsim").CombinedOutput(); err != nil {
		t.Fatalf("build carsim: %v\n%s", err, out)
	}
	base := []string{"-campaign", "examples/campaigns/quickstart.campaign", "-fleet", "12", "-seed", "42"}

	payload := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "health: ") || strings.HasPrefix(line, "throughput:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}

	clean, err := exec.Command(bin, base...).CombinedOutput()
	if err != nil {
		t.Fatalf("fault-free run: %v\n%s", err, clean)
	}

	chaotic, err := exec.Command(bin, append(base,
		"-chaos", "seed=7,panic=0.02,corrupt=0.02,deadline=0.01,crash=0.005")...).CombinedOutput()
	if err != nil {
		t.Fatalf("recoverable chaos run failed: %v\n%s", err, chaotic)
	}
	if !strings.Contains(string(chaotic), "\nhealth: ") {
		t.Errorf("chaos run printed no health line:\n%s", chaotic)
	}
	if payload(string(chaotic)) != payload(string(clean)) {
		t.Errorf("chaos payload diverged from fault-free run:\n--- clean ---\n%s\n--- chaos ---\n%s", clean, chaotic)
	}

	// Unrecoverable: every attempt faults; carsim must flush the partial
	// report and exit 3 (distinct from usage/spec errors at 1).
	out, err := exec.Command(bin, append(base, "-chaos", "seed=3,panic=1,persist=99")...).CombinedOutput()
	var exit *exec.ExitError
	if err == nil {
		t.Fatalf("unrecoverable chaos run exited 0:\n%s", out)
	} else if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("unrecoverable chaos run: %v, want exit code 3\n%s", err, out)
	}
	if !strings.Contains(string(out), "unrecoverable=") {
		t.Errorf("partial report lacks health counters:\n%s", out)
	}

	// A malformed spec is a usage error, not a sweep failure: exit 1.
	if err := exec.Command(bin, append(base, "-chaos", "panic=nope")...).Run(); err == nil {
		t.Error("bad -chaos spec exited 0")
	} else if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("bad -chaos spec: %v, want exit code 1", err)
	}
}

// TestExitCodeContract pins the documented exit codes of the command-line
// tools, one row per contract: carsim exits 0 on a clean sweep, 1 on a bad
// spec or a rejected flag value, 2 on an undefined flag (the flag
// package's usage exit) and 3 on an unrecoverable sweep (after flushing
// the partial report); rollout exits 0 when the candidate reaches the
// fleet, 2 when it rolls back and 1 when the driver itself fails; policyc
// exits 2 on an unknown backend (a bad invocation, as opposed to bad input
// at 1). A row with a message also requires the output to contain it.
func TestExitCodeContract(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/carsim", "./cmd/rollout", "./cmd/policyc").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	const quickstart = "examples/campaigns/quickstart.campaign"
	cases := []struct {
		name string
		args []string
		want int
		msg  string
	}{
		{"carsim clean", []string{"carsim", "-campaign", quickstart, "-fleet", "4"}, 0, ""},
		{"carsim bad spec", []string{"carsim", "-campaign", "no-such.campaign"}, 1, ""},
		{"carsim json shard wire", []string{"carsim", "-campaign", quickstart, "-shard-wire", "json"}, 1, "want binary"},
		{"carsim NaN chaos rate", []string{"carsim", "-campaign", quickstart, "-chaos", "seed=1,panic=NaN"}, 1, "bad panic rate"},
		{"carsim NaN verify sample", []string{"carsim", "-campaign", quickstart, "-verify-sample", "NaN"}, 1, "outside [0, 1]"},
		{"carsim negative fleet", []string{"carsim", "-campaign", quickstart, "-fleet", "-5"}, 1, "-fleet -5 is negative"},
		{"carsim negative workers", []string{"carsim", "-campaign", "examples/campaigns/lite.campaign", "-fleet", "2", "-workers", "-3"}, 1, "-workers -3 is negative"},
		{"carsim undefined flag", []string{"carsim", "-campaign", quickstart, "-no-such-flag"}, 2, "not defined: -no-such-flag"},
		{"carsim unrecoverable chaos", []string{"carsim", "-campaign", quickstart, "-fleet", "4", "-chaos", "seed=3,panic=1,persist=99"}, 3, ""},
		{"carsim shard range past the fleet", []string{"carsim", "-shard-range", "50:5", "-fleet", "10"}, 1, "shard 50:5: range outside the fleet of 10 vehicles"},
		{"carsim shard range end overflows", []string{"carsim", "-shard-range", "9223372036854775806:5", "-fleet", "10"}, 1, "shard 9223372036854775806:5: range outside the fleet of 10 vehicles"},
		{"rollout advance", []string{"rollout", "-vehicles", "40"}, 0, ""},
		{"rollout driver failure", []string{"rollout", "-vehicles", "0"}, 1, ""},
		{"rollout rollback", []string{"rollout", "-vehicles", "40", "-drill", "rollback"}, 2, ""},
		{"rollout NaN tolerance", []string{"rollout", "-vehicles", "40", "-drill", "rollback", "-tolerance", "NaN"}, 1, "not finite and non-negative"},
		{"rollout infinite tolerance", []string{"rollout", "-vehicles", "40", "-drill", "rollback", "-tolerance", "+Inf"}, 1, "not finite and non-negative"},
		{"rollout NaN apply-fail", []string{"rollout", "-vehicles", "40", "-apply-fail", "NaN", "-no-gate"}, 1, "outside [0, 1]"},
		{"rollout negative workers", []string{"rollout", "-vehicles", "10", "-workers", "-3"}, 1, "-workers -3 is negative"},
		{"rollout negative shards", []string{"rollout", "-vehicles", "20", "-shards", "-2"}, 1, "-shards -2 is negative"},
		{"policyc unknown backend", []string{"policyc", "-check", "-backend", "no-such-backend"}, 2, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, c.args[0]), c.args[1:]...).CombinedOutput()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.want {
				t.Errorf("%v: exit code %d, want %d\n%s", c.args, code, c.want, out)
			}
			if !strings.Contains(string(out), c.msg) {
				t.Errorf("%v: output does not mention %q:\n%s", c.args, c.msg, out)
			}
		})
	}
}

// TestCLIDifferential is the byte-identity contract of carsim's execution
// paths through one built binary: each row's output must equal its
// reference run's once the mode= marker and the wall-clock throughput: line
// are stripped (health lines stay). The batched default is diffed against
// the -no-batch oracle; in-process and subprocess shard layouts at several
// fan-out levels against the unsharded run; the chaos plan across worker
// counts and shard layouts; the Table I fleet mode against its oracle,
// subprocess shards and every policy backend; and the risk pipeline over
// subprocess shards and a non-default backend.
func TestCLIDifferential(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "carsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/carsim").CombinedOutput(); err != nil {
		t.Fatalf("build carsim: %v\n%s", err, out)
	}
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	quick := []string{"-campaign", "examples/campaigns/quickstart.campaign", "-fleet", "10", "-workers", "4"}
	// Unsharded, the stamped range folds as one count; in-process shards
	// fold each shard's stamped range as one run too.
	quick1000 := []string{"-campaign", "examples/campaigns/quickstart.campaign", "-fleet", "1000", "-workers", "4"}
	chaos := []string{"-campaign", "examples/campaigns/quickstart.campaign", "-fleet", "12",
		"-chaos", "seed=7,panic=0.02,corrupt=0.02,deadline=0.01,crash=0.005"}
	chaos4 := with(chaos, "-workers", "4")
	risk := []string{"-risk", "examples/threatmodels/connected-car.json", "-workers", "4"}
	fleet := []string{"-fleet", "20", "-workers", "4"}
	type row struct {
		name      string
		ref, args []string
	}
	rows := []row{{"no-batch", quick, with(quick, "-no-batch")}}
	for _, n := range []string{"1", "4"} {
		rows = append(rows, row{"shards=" + n, quick, with(quick, "-shards", n)})
		for _, par := range []string{"1", "4"} {
			rows = append(rows, row{"shards=" + n + "/exec/parallelism=" + par, quick,
				with(quick, "-shards", n, "-shard-exec", "-shard-parallelism", par)})
		}
	}
	rows = append(rows,
		row{"fleet=1000/shards=4", quick1000, with(quick1000, "-shards", "4")},
		row{"chaos/workers=1", chaos4, with(chaos, "-workers", "1")},
		row{"chaos/shards=4", chaos4, with(chaos4, "-shards", "4")},
		row{"chaos/shards=4/exec/parallelism=4", chaos4, with(chaos4, "-shards", "4", "-shard-exec", "-shard-parallelism", "4")},
		row{"risk/shards=2/exec", risk, with(risk, "-shards", "2", "-shard-exec")},
		row{"risk/backend=expr", risk, with(risk, "-policy-backend", "expr")},
		row{"fleet/no-batch", fleet, with(fleet, "-no-batch")},
		row{"fleet/shards=3/exec/parallelism=2", fleet, with(fleet, "-shards", "3", "-shard-exec", "-shard-parallelism", "2")},
		row{"fleet/backend=closure", fleet, with(fleet, "-policy-backend", "closure")},
		row{"fleet/backend=expr", fleet, with(fleet, "-policy-backend", "expr")},
	)

	runs := map[string]string{} // each distinct invocation runs once
	run := func(t *testing.T, args []string) string {
		t.Helper()
		key := strings.Join(args, "\x00")
		if out, ok := runs[key]; ok {
			return out
		}
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				t.Fatalf("carsim %v: %v\n%s%s", args, err, out, exit.Stderr)
			}
			t.Fatalf("carsim %v: %v", args, err)
		}
		var keep []string
		for _, line := range strings.Split(string(out), "\n") {
			if !strings.HasPrefix(line, "mode=") && !strings.HasPrefix(line, "throughput:") {
				keep = append(keep, line)
			}
		}
		runs[key] = strings.Join(keep, "\n")
		return runs[key]
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if got, want := run(t, r.args), run(t, r.ref); got != want {
				t.Errorf("carsim %v diverged from carsim %v:\n--- want ---\n%s\n--- got ---\n%s", r.args, r.ref, want, got)
			}
		})
	}
	if !strings.Contains(run(t, chaos4), "\nhealth: ") {
		t.Error("the chaos rows compared no health line")
	}
}

// TestDeterministicReplay: two identical simulations produce identical
// traces — the property every experiment in EXPERIMENTS.md relies on — and
// that trace, error injections and retransmissions included, matches
// testdata/bus_trace.golden byte for byte.
func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		c := car.MustNew(car.Config{ErrorRate: 0.05, Seed: 99})
		var trace []string
		c.Bus().SetTracer(func(e canbus.TraceEvent) { trace = append(trace, e.String()) })
		c.StartTraffic(time.Millisecond, 30*time.Millisecond, 42)
		if err := c.LockDoors(); err != nil {
			t.Fatal(err)
		}
		c.Scheduler().Run()
		return trace
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no trace events")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	checkGolden(t, "testdata/bus_trace.golden", strings.Join(a, "\n"))
}
