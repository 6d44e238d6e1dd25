// Command carsim runs the connected-car simulation: it can print the Fig. 2
// topology and Fig. 3/4 architecture views, replay the sixteen Table I
// attack scenarios under selectable enforcement regimes, trace bus
// activity, and sweep a whole fleet of independent vehicle simulations
// across a bounded worker pool.
//
// Usage:
//
//	carsim -print-topology
//	carsim -attack all -enforcement none,software,hpe
//	carsim -attack EVECU-1 -enforcement hpe -trace
//	carsim -fleet 100 -workers 8 -seed 42
//	carsim -fleet 1000 -no-batch   # reference oracle: fresh stacks, cell by cell
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 100
//	carsim -campaign examples/campaigns/quickstart.campaign -list-scenarios
//	carsim -risk examples/threatmodels/connected-car.json
//	carsim -risk examples/threatmodels/connected-car.json -list-scenarios
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 50 -chaos "seed=7,panic=0.01,crash=0.002"
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 50 -verify-sample 0.05
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 100 -cpuprofile cpu.out -memprofile mem.out
//
// Exit codes:
//
//	0  success
//	1  any other failure: a rejected flag value (a bad -chaos spec,
//	   -shard-wire other than binary, a -shard-range outside the fleet, a
//	   repeated -enforcement regime), an unreadable or invalid spec, a sweep
//	   that failed before producing a report, or a failed write of stdout
//	   in any mode, a partial report's included
//	2  flag parsing failed: an undefined flag or a malformed value
//	3  unrecoverable sweep: the partial report, health line included, was
//	   flushed to stdout first
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/hpe"
	"repro/internal/policy/ir"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/shard"
)

// errPartialSweep marks an unrecoverable sweep whose partial report was
// still flushed to stdout; main maps it to exit code 3, distinct from the
// generic failure exit 1, so callers can tell "failed with evidence" from
// "failed outright".
var errPartialSweep = errors.New("sweep unrecoverable, partial report flushed")

// stdout buffers every mode's output but the shard child's wire stream,
// which streams to os.Stdout frame by frame; main flushes it before it
// decides the exit code, so a failed write of stdout fails the run.
var stdout = bufio.NewWriter(os.Stdout)

// supervision bundles the sweep supervisor's CLI-selectable knobs plus the
// policy backend the swept vehicles enforce with, and the sharding layout.
// chaosSpec keeps the raw -chaos string so subprocess shards can be handed
// the exact flag their parent parsed.
type supervision struct {
	plan      *chaos.Plan
	verify    float64
	backend   string
	chaosSpec string
	// shards partitions the fleet index space (<=1: unsharded); shardExec
	// runs each range as a carsim subprocess speaking the binary shard wire.
	shards    int
	shardExec bool
	// shardParallelism bounds how many subprocess shards run concurrently
	// (1: sequential, PR 9's behaviour). The merge still consumes shards in
	// range order, so the report does not move.
	shardParallelism int
	// shardRange, when non-empty, puts this process in shard-child mode: run
	// only that "start:count" slice of the whole-fleet config and stream it
	// to stdout on the binary shard wire.
	shardRange string
}

func main() {
	topology := flag.Bool("print-topology", false, "print the Fig. 2 topology and exit")
	nodeArch := flag.String("print-node", "", "print the Fig. 3 internals of the named node and exit")
	hpeView := flag.Bool("print-hpe", false, "print the Fig. 4 policy-engine view of the EV-ECU and exit")
	attackSel := flag.String("attack", "", "threat id to replay, or \"all\"")
	enforcement := flag.String("enforcement", "none,hpe", "comma-separated regimes: none, software, hpe")
	trace := flag.Bool("trace", false, "print bus trace events during attacks")
	latency := flag.Bool("latency", false, "run the differing-criticality latency experiment (E1)")
	fleetSize := flag.Int("fleet", 0, "sweep N independent vehicle simulations and print the merged fleet report")
	workers := flag.Int("workers", 0, "bound the fleet worker pool (default GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "root seed for deterministic per-vehicle seed derivation")
	noBatch := flag.Bool("no-batch", false, "run the reference oracle (fresh stacks, cell by cell) instead of the pooled batched default (prefix checkpointing + cross-vehicle stamping); reports are byte-identical either way")
	detail := flag.Bool("detail", false, "with -campaign: append the verbose per-family detail block (stage counters included)")
	campaignFile := flag.String("campaign", "", "compile a campaign spec (text or JSON) and sweep it across the fleet")
	riskFile := flag.String("risk", "", "run a risk spec: synthesize a campaign from its threat model, sweep it, print the calibrated profile")
	listScenarios := flag.Bool("list-scenarios", false, "with -campaign or -risk: dump the generated scenario matrix without running it")
	chaosSpec := flag.String("chaos", "", "arm deterministic fault injection, e.g. \"seed=7,panic=0.01,corrupt=0.005,deadline=0.002,crash=0.001\" (\"off\" disables)")
	verifySample := flag.Float64("verify-sample", 0, "cross-check this fraction of batched cells against the cell-by-cell oracle inline (0 disables)")
	policyBackend := flag.String("policy-backend", "", "policy enforcement backend for swept vehicles: "+strings.Join(ir.Names(), ", ")+" (default table)")
	shards := flag.Int("shards", 0, "partition the fleet index space into N contiguous ranges run as independent engine runs; the merged report is byte-identical to the unsharded sweep")
	shardExec := flag.Bool("shard-exec", false, "with -shards: run each shard as a carsim subprocess (shard wire format over stdout) instead of in-process")
	shardWire := flag.String("shard-wire", "binary", "with -shard-exec: subprocess wire format; only \"binary\" (the streaming frame protocol) is accepted")
	shardParallelism := flag.Int("shard-parallelism", 1, "with -shard-exec: run up to P subprocess shards concurrently; each shard folds as it arrives and the folds combine exactly, so the report is byte-identical at any P")
	shardRange := flag.String("shard-range", "", "internal: run only this start:count slice of the fleet and emit the shard wire report on stdout (set by -shard-exec parents)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when the run finishes")
	flag.Parse()

	plan, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	if !(*verifySample >= 0 && *verifySample <= 1) { // NaN fails too
		fmt.Fprintf(os.Stderr, "carsim: -verify-sample %v outside [0, 1]\n", *verifySample)
		os.Exit(1)
	}
	if _, err := ir.Lookup(*policyBackend); err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	// 0 means "default" for each count; a negative one is a typo, not a size.
	for _, c := range []struct {
		flag string
		n    int
	}{{"fleet", *fleetSize}, {"workers", *workers}, {"shards", *shards}} {
		if c.n < 0 {
			fmt.Fprintf(os.Stderr, "carsim: -%s %d is negative\n", c.flag, c.n)
			os.Exit(1)
		}
	}
	if *shardWire != "binary" {
		fmt.Fprintf(os.Stderr, "carsim: -shard-wire %q (want binary)\n", *shardWire)
		os.Exit(1)
	}
	if *shardParallelism < 1 {
		fmt.Fprintf(os.Stderr, "carsim: -shard-parallelism %d (want >= 1)\n", *shardParallelism)
		os.Exit(1)
	}
	sup := supervision{
		plan: plan, verify: *verifySample, backend: *policyBackend,
		chaosSpec: *chaosSpec, shards: *shards, shardExec: *shardExec,
		shardParallelism: *shardParallelism, shardRange: *shardRange,
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	// Profiles are flushed through a defer before the exit-code decision, so
	// a failing — or panicking — sweep can still be diagnosed from them.
	var flushErr error
	err = func() error {
		defer func() { flushErr = stopProfiles() }()
		return run(*topology, *nodeArch, *hpeView, *latency, *attackSel, *enforcement, *trace, *fleetSize, *workers, *seed, *noBatch, *detail, *campaignFile, *riskFile, *listScenarios, sup)
	}()
	// A failed write of stdout fails the run. It also turns exit 3 into 1:
	// a partial report that never reached stdout is no evidence.
	if werr := stdout.Flush(); werr != nil && (err == nil || errors.Is(err, errPartialSweep)) {
		err = werr
	}
	if err == nil {
		err = flushErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		if errors.Is(err, errPartialSweep) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// startProfiles arms the requested pprof outputs and returns the flush
// function: CPU profiling stops and the heap profile is written (after a
// final GC, so the snapshot shows live retention rather than garbage) when
// the run ends, whether it succeeded or not. Both files are created up
// front so a bad path fails before the sweep runs, not after.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile, memFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		memFile = f
	}
	return func() error {
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if memFile != nil {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(memFile); werr != nil && err == nil {
				err = werr
			}
			if cerr := memFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}, nil
}

func run(topology bool, nodeArch string, hpeView, latency bool, attackSel, enforcement string, trace bool, fleetSize, workers int, seed uint64, noBatch, detail bool, campaignFile, riskFile string, listScenarios bool, sup supervision) error {
	if topology {
		fmt.Fprint(stdout, report.Topology())
		return nil
	}
	if nodeArch != "" {
		fmt.Fprint(stdout, report.NodeArchitecture(nodeArch))
		return nil
	}
	if hpeView {
		return printHPEView()
	}
	if latency {
		return runLatency()
	}
	if sup.shardRange != "" {
		return runShardChild(campaignFile, riskFile, enforcement, fleetSize, workers, seed, noBatch, sup)
	}
	if campaignFile != "" {
		return runCampaign(campaignFile, listScenarios, fleetSize, workers, seed, noBatch, detail, sup)
	}
	if riskFile != "" {
		return runRisk(riskFile, listScenarios, fleetSize, workers, seed, noBatch, sup)
	}
	if listScenarios {
		return fmt.Errorf("-list-scenarios requires -campaign or -risk")
	}
	if fleetSize > 0 {
		return runFleet(fleetSize, workers, seed, enforcement, noBatch, sup)
	}
	if attackSel == "" {
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -print-topology, -print-node, -print-hpe, -latency, -campaign, -risk, -fleet or -attack")
	}
	return runAttacks(attackSel, enforcement, trace, sup.backend)
}

// buildEngineConfig reconstructs the whole-fleet engine configuration of the
// current mode — campaign, risk, or the Table I fleet sweep — from the same
// flags the parent parsed, so a shard child partitions exactly the index
// space its parent did.
func buildEngineConfig(campaignFile, riskFile, enforcement string, fleetSize, workers int, seed uint64, noBatch bool, sup supervision) (engine.Config, error) {
	switch {
	case campaignFile != "":
		raw, err := os.ReadFile(campaignFile)
		if err != nil {
			return engine.Config{}, err
		}
		spec, err := campaign.Parse(string(raw))
		if err != nil {
			return engine.Config{}, err
		}
		plan, err := (campaign.Compiler{}).Compile(spec)
		if err != nil {
			return engine.Config{}, err
		}
		return campaign.EngineConfig(plan, campaignSweepConfig(fleetSize, workers, seed, noBatch, sup, nil))
	case riskFile != "":
		raw, err := os.ReadFile(riskFile)
		if err != nil {
			return engine.Config{}, err
		}
		spec, err := risk.ParseSpec(string(raw))
		if err != nil {
			return engine.Config{}, err
		}
		out, scfg, err := risk.SweepSetup(spec, campaignSweepConfig(fleetSize, workers, seed, noBatch, sup, nil))
		if err != nil {
			return engine.Config{}, err
		}
		return campaign.EngineConfig(out.Plan, scfg)
	default:
		// The Table I sweep: one group of every Table I scenario under the
		// selected regimes, seeded by -seed, on the -policy-backend harness.
		regimes, err := parseRegimes(enforcement)
		if err != nil {
			return engine.Config{}, err
		}
		h, err := attack.NewHarnessBackend(sup.backend)
		if err != nil {
			return engine.Config{}, err
		}
		return engine.Config{
			Fleet:        fleetSize,
			Workers:      workers,
			Groups:       []engine.ScenarioGroup{{Scenarios: attack.Scenarios(), Regimes: regimes, RootSeed: seed}},
			Harness:      h,
			NoBatch:      noBatch,
			Chaos:        sup.plan,
			VerifySample: sup.verify,
		}, nil
	}
}

// runShardChild is the hidden -shard-range mode a -shard-exec parent spawns:
// rebuild the whole-fleet configuration from the forwarded flags, run only
// the assigned index slice, and stream it to stdout on the binary shard
// wire, frame by frame as vehicles complete. The child always exits 0 when
// the stream is written — an unrecoverable sweep travels in the trailer,
// exactly as engine.Run returns the partial report alongside its error.
func runShardChild(campaignFile, riskFile, enforcement string, fleetSize, workers int, seed uint64, noBatch bool, sup supervision) error {
	r, err := shard.ParseRange(sup.shardRange)
	if err != nil {
		return err
	}
	ecfg, err := buildEngineConfig(campaignFile, riskFile, enforcement, fleetSize, workers, seed, noBatch, sup)
	if err != nil {
		return err
	}
	return shard.RunRangeWire(ecfg, r, os.Stdout)
}

// shardSpawn returns the subprocess spawn hook: re-invoke this binary with
// the run's own mode flags plus the child's -shard-range, and decode the
// child's binary wire stream from its stdout pipe incrementally (the
// parent never buffers a shard's report set). Child stderr passes through
// for diagnostics.
func shardSpawn(campaignFile, riskFile, enforcement string, fleetSize, workers int, seed uint64, noBatch bool, sup supervision) shard.Spawn {
	return func(r shard.Range) (shard.Stream, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{
			"-shard-range", r.String(),
			"-fleet", strconv.Itoa(fleetSize),
			"-workers", strconv.Itoa(workers),
			"-seed", strconv.FormatUint(seed, 10),
		}
		switch {
		case campaignFile != "":
			args = append(args, "-campaign", campaignFile)
		case riskFile != "":
			args = append(args, "-risk", riskFile)
		default:
			args = append(args, "-enforcement", enforcement)
		}
		if noBatch {
			args = append(args, "-no-batch")
		}
		if sup.chaosSpec != "" {
			args = append(args, "-chaos", sup.chaosSpec)
		}
		if sup.verify > 0 {
			args = append(args, "-verify-sample", strconv.FormatFloat(sup.verify, 'g', -1, 64))
		}
		if sup.backend != "" {
			args = append(args, "-policy-backend", sup.backend)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("subprocess shard %s: %w", r, err)
		}
		return shard.NewWireStream(pipe, func() error {
			// Closing the read end first unblocks a child still writing
			// after a mid-stream decode error, so Wait cannot hang.
			pipe.Close()
			if err := cmd.Wait(); err != nil {
				return fmt.Errorf("subprocess shard %s: %w", r, err)
			}
			return nil
		}), nil
	}
}

// campaignSweepConfig assembles the sweep configuration of the campaign and
// risk modes, shared by the parent sweep and the shard child's config
// rebuild (spawn is nil in the child — its slice IS the work).
func campaignSweepConfig(fleetSize, workers int, seed uint64, noBatch bool, sup supervision, spawn shard.Spawn) campaign.SweepConfig {
	return campaign.SweepConfig{
		Fleet:            fleetSize,
		Workers:          workers,
		RootSeed:         seed,
		NoBatch:          noBatch,
		Chaos:            sup.plan,
		VerifySample:     sup.verify,
		PolicyBackend:    sup.backend,
		Shards:           sup.shards,
		SpawnShard:       spawn,
		ShardParallelism: sup.shardParallelism,
	}
}

// runCampaign compiles a campaign spec and either lists its generated
// scenario matrix or sweeps it across the fleet, printing the deterministic
// campaign view plus a separate wall-clock throughput line.
func runCampaign(path string, listOnly bool, fleetSize, workers int, seed uint64, noBatch, detail bool, sup supervision) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := campaign.Parse(string(raw))
	if err != nil {
		return err
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		return err
	}
	if listOnly {
		fmt.Fprint(stdout, plan.Matrix())
		return nil
	}
	if fleetSize <= 0 {
		fleetSize = 1
	}
	var spawn shard.Spawn
	if sup.shardExec {
		spawn = shardSpawn(path, "", "", fleetSize, workers, seed, noBatch, sup)
	}
	start := time.Now()
	rep, err := campaign.Sweep(plan, campaignSweepConfig(fleetSize, workers, seed, noBatch, sup, spawn))
	if err != nil {
		if rep == nil {
			return err
		}
		// Unrecoverable sweep: flush the partial view — its Health ledger is
		// the evidence an operator debugs from — then fail with exit code 3.
		fmt.Fprintf(stdout, "mode=%s\n", execMode(noBatch))
		fmt.Fprint(stdout, report.CampaignView(rep))
		return fmt.Errorf("%w: %v", errPartialSweep, err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "mode=%s\n", execMode(noBatch))
	if detail {
		fmt.Fprint(stdout, report.CampaignDetailView(rep))
	} else {
		fmt.Fprint(stdout, report.CampaignView(rep))
	}
	fmt.Fprintf(stdout, "\nthroughput: %.0f vehicles/s, %.0f cells/s (%v wall clock)\n",
		float64(fleetSize)/elapsed.Seconds(), float64(rep.Cells)/elapsed.Seconds(),
		elapsed.Round(time.Millisecond))
	return nil
}

// execMode names the executor for the report header: "batched" is the
// default pooled, prefix-checkpointed path, "oracle" the -no-batch
// fresh-stack, cell-by-cell reference. The marker sits in the deterministic
// body on purpose — the CLI differential test strips it (with the
// throughput line) before diffing a batched run against an oracle run.
func execMode(noBatch bool) string {
	if noBatch {
		return "oracle"
	}
	return "batched"
}

// runRisk executes the risk pipeline: parse the spec, synthesize a campaign
// from its threat model, sweep it across the fleet, and print the
// calibrated rubric-vs-measured profile. The profile itself is
// deterministic; the wall-clock throughput line prints separately.
func runRisk(path string, listOnly bool, fleetSize, workers int, seed uint64, noBatch bool, sup supervision) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := risk.ParseSpec(string(raw))
	if err != nil {
		return err
	}
	if listOnly {
		out, err := risk.Compile(spec)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out.Plan.Matrix())
		return nil
	}
	if fleetSize <= 0 {
		fleetSize = 1
	}
	var spawn shard.Spawn
	if sup.shardExec {
		spawn = shardSpawn("", path, "", fleetSize, workers, seed, noBatch, sup)
	}
	start := time.Now()
	out, err := risk.Run(spec, campaignSweepConfig(fleetSize, workers, seed, noBatch, sup, spawn))
	if err != nil {
		if out == nil || out.Report == nil {
			return err
		}
		// The profile was never calibrated (scoring from a partial sweep
		// would launder incomplete block rates into DREAD deltas); flush the
		// partial campaign evidence instead.
		fmt.Fprintf(stdout, "mode=%s\n", execMode(noBatch))
		fmt.Fprint(stdout, report.CampaignView(out.Report))
		return fmt.Errorf("%w: %v", errPartialSweep, err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "mode=%s\n", execMode(noBatch))
	fmt.Fprint(stdout, report.RiskView(out.Profile))
	fmt.Fprintf(stdout, "\nthroughput: %.0f vehicles/s, %.0f cells/s (%v wall clock)\n",
		float64(out.Report.Fleet)/elapsed.Seconds(), float64(out.Report.Cells)/elapsed.Seconds(),
		elapsed.Round(time.Millisecond))
	return nil
}

// runFleet sweeps the Table I matrix across a simulated fleet and streams
// the merged report to stdout, plus the wall-clock throughput. The report
// itself stays byte-stable for a given config; the timing line is printed
// separately.
func runFleet(fleetSize, workers int, seed uint64, enforcement string, noBatch bool, sup supervision) error {
	ecfg, err := buildEngineConfig("", "", enforcement, fleetSize, workers, seed, noBatch, sup)
	if err != nil {
		return err
	}
	start := time.Now()
	var fr *engine.FleetReport
	if sup.shards > 1 || sup.shardExec {
		var spawn shard.Spawn
		if sup.shardExec {
			spawn = shardSpawn("", "", enforcement, fleetSize, workers, seed, noBatch, sup)
		}
		fr, err = shard.Run(shard.Config{
			Engine: ecfg, Shards: sup.shards,
			Spawn: spawn, Parallelism: sup.shardParallelism,
		})
	} else {
		fr, err = engine.Run(ecfg)
	}
	if fr == nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "mode=%s\n", execMode(noBatch))
	if werr := fr.Render(stdout); werr != nil {
		return werr
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errPartialSweep, err)
	}
	fmt.Fprintf(stdout, "throughput: %.0f vehicles/s (%v wall clock)\n",
		float64(fleetSize)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	return nil
}

// runLatency executes the E1 experiment matrix: {quiet, flood} x {none, hpe}.
func runLatency() error {
	h, err := attack.NewHarness()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "E1: per-class delivery latency under a high-priority flood (250 ms horizon)")
	cases := []struct {
		label string
		cfg   attack.LatencyConfig
	}{
		{"quiet bus, no enforcement", attack.LatencyConfig{Enforce: attack.EnforceNone}},
		{"flooded bus, no enforcement", attack.LatencyConfig{Enforce: attack.EnforceNone, Flood: true}},
		{"flooded bus, HPE deployed", attack.LatencyConfig{Enforce: attack.EnforceHPE, Flood: true}},
	}
	for _, cs := range cases {
		stats, err := h.MeasureLatency(cs.cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%s:\n", cs.label)
		for _, s := range stats {
			fmt.Fprintln(stdout, "  ", s)
		}
	}
	return nil
}

func printHPEView() error {
	h, err := attack.NewHarness()
	if err != nil {
		return err
	}
	c := car.MustNew(car.Config{})
	engines, err := hpe.Deploy(c.Bus(), h.Compiled, c, car.AllNodes...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, report.HPEView(engines[car.NodeEVECU], h.Compiled, car.ModeNormal))
	return nil
}

func parseRegimes(s string) ([]attack.Enforcement, error) {
	var out []attack.Enforcement
	for _, part := range strings.Split(s, ",") {
		var r attack.Enforcement
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "none":
			r = attack.EnforceNone
		case "software":
			r = attack.EnforceSoftware
		case "hpe":
			r = attack.EnforceHPE
		case "":
			continue
		default:
			return nil, fmt.Errorf("unknown enforcement regime %q", part)
		}
		if slices.Contains(out, r) {
			return nil, fmt.Errorf("enforcement regime %q repeated", r)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no enforcement regimes selected")
	}
	return out, nil
}

func runAttacks(sel, enforcement string, trace bool, backend string) error {
	regimes, err := parseRegimes(enforcement)
	if err != nil {
		return err
	}
	h, err := attack.NewHarnessBackend(backend)
	if err != nil {
		return err
	}
	var scenarios []attack.Scenario
	if sel == "all" {
		scenarios = attack.Scenarios()
	} else {
		sc, ok := attack.ScenarioFor(sel)
		if !ok {
			return fmt.Errorf("unknown threat id %q (try \"all\")", sel)
		}
		scenarios = []attack.Scenario{sc}
	}

	results, err := h.RunAll(scenarios, regimes...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Attack matrix: %d scenario(s) x %d regime(s)\n\n", len(scenarios), len(regimes))
	fmt.Fprint(stdout, report.AttackResults(results))
	fmt.Fprintln(stdout)
	for _, r := range results {
		fmt.Fprintln(stdout, " ", r)
	}
	if trace {
		fmt.Fprintln(stdout, "\nBus trace of the first scenario under the last regime:")
		res, err := h.Trace(scenarios[0], regimes[len(regimes)-1], func(e canbus.TraceEvent) { fmt.Fprintln(stdout, "   ", e) })
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "    outcome: succeeded=%v\n", res.Succeeded)
	}
	return nil
}
