// Command fleetbench is the repository's end-to-end benchmark: it drives
// closed-loop campaign sweeps (campaign.Sweep followed by
// report.CampaignView, what a carsim user waits for) through four workloads,
// checks every report against a reference, and prints one JSON result line.
// A traced run (--trace 1) instead times each layer's public API from this
// package and reports per-layer metrics. See README.md.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload exec-quickstart --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric describes one reported metric.
type metric struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics of an untraced run; perLayer those of a traced
// run. BENCHMARK.json lists the same names and units (a test checks).
var endToEnd = []metric{
	{"setup_s", "s", false},
	{"cells_per_s", "cells/s", true},
	{"sweep_ms.p50", "ms", false},
	{"sweep_ms.p90", "ms", false},
	{"peak_rss_mb", "MB", false},
}

var perLayer = []metric{
	{"attack.arena_new_us", "us", false},
	{"attack.live_us", "us", false},
	{"attack.cell_us.single", "us", false},
	{"attack.cell_us.batched", "us", false},
	{"attack.cell_us.oracle", "us", false},
	{"attack.fork_ratio", "ratio", true},
	{"attack.cells.single", "count", false},
	{"attack.cells.prime", "count", false},
	{"attack.cells.fork", "count", true},
	{"sim.steps_per_cell", "count", false},
	{"canbus.frames_per_cell", "count", false},
	{"engine.overhead_us", "us", false},
	{"trace.coverage", "ratio", true},
	{"sim.steps_per_vehicle", "count", false},
	{"sim.ns_per_step", "ns", false},
	{"canbus.frames_per_vehicle", "count", false},
	{"canbus.errors_per_vehicle", "count", false},
	{"hpe.decisions_per_vehicle", "count", false},
	{"hpe.blocked_per_vehicle", "count", false},
	{"engine.run_ms", "ms", false},
	{"engine.emit_gap_ns.p50", "ns", false},
	{"engine.merge_fold_ms", "ms", false},
	{"report.render_us", "us", false},
	{"engine.alloc_bytes_per_vehicle", "B", false},
	{"gc.cycles_per_sweep", "count", false},
	{"shard.spawn_ms", "ms", false},
	{"shard.first_frame_ms", "ms", false},
	{"shard.child_ms", "ms", false},
	{"shard.parent_wait_ms", "ms", false},
	{"wire.bytes_per_vehicle", "B", false},
	{"wire.encode_ns_per_vehicle", "ns", false},
	{"wire.decode_ns_per_vehicle", "ns", false},
	{"trace.overhead", "ratio", false},
}

const (
	// minSweeps is the fewest timed sweeps a run may report: enough that
	// sweep_ms.p90 has ten samples beyond it.
	minSweeps = 100
	// setupRuns is how many times an untraced run sets up; setup_s is the
	// median.
	setupRuns = 9
	// buildDir holds everything the benchmark writes, under the root.
	buildDir = ".bench_build"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 42, "root seed of every sweep")
	seconds := fs.Int("seconds", 20, "length of the measured loop")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := fs.String("record", "", "append the result, tagged with its workload, to this JSON-lines file (input to compare)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	m, err := newManifest(".", *seed, *seconds, *trace)
	if err != nil {
		return err
	}
	mj, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Printf("manifest: %s\n", mj)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	carsim, err := filepath.Abs(filepath.Join(buildDir, "carsim"))
	if err != nil {
		return err
	}
	if err := buildCarsim(".", carsim); err != nil {
		return err
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		spans := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
		res, err = traceRun(".", carsim, w, *seed, d, spans)
		if err == nil {
			fmt.Printf("%s: spans written to %s\n", w.name, spans)
		}
	} else {
		res, err = timedRun(".", carsim, w, *seed, d, minSweeps)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *record != "" {
		if err := appendRecord(*record, w.name, *seed, *trace, res); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", line)
	return nil
}

// timedRun is an untraced run: setupRuns set-ups, the reference, then the
// closed loop, reporting the end-to-end metrics.
func timedRun(root, carsim string, w *workload, seed uint64, d time.Duration, min int) (*result, error) {
	var b *bench
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		var err error
		if b, err = setup(root, carsim, w, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.reference(); err != nil {
		return nil, err
	}
	t := b.timedLoop(d, min)
	if t.attempted < min {
		return nil, fmt.Errorf("%s: only %d sweeps in %v (need %d)", w.name, t.attempted, t.wall, min)
	}
	if len(t.samples) == 0 {
		return nil, fmt.Errorf("%s: every sweep failed", w.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":      median(setups),
		"cells_per_s":  float64(t.cells) / t.wall.Seconds(),
		"sweep_ms.p50": percentile(t.samples, 50),
		"sweep_ms.p90": percentile(t.samples, 90),
		"peak_rss_mb":  rss,
	}
	fmt.Printf("%s: %d sweeps by %d client(s) in %.2f s, %d failed; sweep_ms p50 %.3f p90 %.3f\n",
		w.name, t.attempted, w.clients, t.wall.Seconds(), t.failed, vals["sweep_ms.p50"], vals["sweep_ms.p90"])
	return newResult(t.attempted, t.failed, endToEnd, vals)
}

// traceRun is a traced run: one set-up, the reference, then untraced and
// traced sweeps alternating, reporting the per-layer metrics. The spans are
// written to spansPath when it ends.
func traceRun(root, carsim string, w *workload, seed uint64, d time.Duration, spansPath string) (*result, error) {
	b, err := setup(root, carsim, w, seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := b.reference(); err != nil {
		return nil, err
	}
	tr := newTracer()
	vals, attempted, failed, err := b.traceLoop(tr, d)
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	fmt.Printf("%s: %d sweeps traced and untraced, %d failed\n", w.name, attempted, failed)
	return newResult(attempted, failed, perLayer, vals)
}

func newResult(attempted, failed int, defs []metric, vals map[string]float64) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, nil
}

// buildCarsim builds the shard child binary from the checkout's source.
func buildCarsim(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/carsim")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build carsim: %w", err)
	}
	return nil
}

// record is one line of a compare input file.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path, workload string, seed uint64, trace int, res *result) error {
	line, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifest names the binary and inputs a run's numbers come from.
type manifest struct {
	Revision   string            `json:"revision"`
	Modified   string            `json:"modified,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Specs      map[string]string `json:"spec_sha256"`
	Workloads  []workloadParams  `json:"workloads"`
}

type workloadParams struct {
	Name      string  `json:"name"`
	Spec      string  `json:"spec"`
	Fleet     int     `json:"fleet"`
	Workers   int     `json:"workers"`
	Clients   int     `json:"clients"`
	ErrorRate float64 `json:"error_rate"`
	HorizonMS float64 `json:"horizon_ms,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	ShardPar  int     `json:"shard_parallelism,omitempty"`
}

func newManifest(root string, seed uint64, seconds, trace int) (*manifest, error) {
	m := &manifest{
		Revision:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Specs:      make(map[string]string),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	for _, w := range workloads {
		if _, ok := m.Specs[w.spec]; !ok {
			sum, err := fileSHA256(filepath.Join(root, w.spec))
			if err != nil {
				return nil, err
			}
			m.Specs[w.spec] = sum
		}
		m.Workloads = append(m.Workloads, workloadParams{
			Name: w.name, Spec: w.spec, Fleet: w.fleet, Workers: w.workers, Clients: w.clients,
			ErrorRate: w.errorRate, HorizonMS: ms(w.horizon), Shards: w.shards, ShardPar: w.shardPar,
		})
	}
	return m, nil
}

func fileSHA256(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw)), nil
}
