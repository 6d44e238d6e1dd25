package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// root is the repository root, seen from this package's directory.
const root = ".."

// TestWorkloadsSmoke runs each workload for one verified sweep, untraced and
// traced. The traced runs and the sharded workload need a carsim binary,
// built here; -short skips them.
func TestWorkloadsSmoke(t *testing.T) {
	carsim := ""
	if !testing.Short() {
		carsim = filepath.Join(t.TempDir(), "carsim")
		if err := buildCarsim(root, carsim); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if carsim == "" && w.shards > 1 {
				t.Skip("sharded workload builds carsim; skipped under -short")
			}
			b, err := setup(root, carsim, w, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.reference(); err != nil {
				t.Fatal(err)
			}
			run := b.timedLoop(0, 1)
			if run.attempted < 1 || run.failed != 0 || len(run.samples) != run.attempted {
				t.Fatalf("timed loop: %d attempted, %d failed, %d samples", run.attempted, run.failed, len(run.samples))
			}
			if carsim == "" {
				return
			}
			res, err := traceRun(root, carsim, w, 7, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced run: correct=%v with %d of %d metrics", res.Correct, len(res.Metrics), len(perLayer))
			}
		})
	}
}

func TestReferenceCatchesWrongReport(t *testing.T) {
	w, err := findWorkload("exec-quickstart")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup(root, "", w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b.want[0] ^= 1
	if run := b.timedLoop(0, 1); run.failed != run.attempted {
		t.Fatalf("%d of %d sweeps failed against a wrong digest, want all", run.failed, run.attempted)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []boundedMetric `json:"end_to_end"`
		PerLayer  []boundedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []boundedMetric, defs []metric) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			better := "lower"
			if defs[i].higher {
				better = "higher"
			}
			if d.Name != defs[i].name || d.Unit != defs[i].unit || d.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
					kind, i, d.Name, d.Unit, d.Better, defs[i].name, defs[i].unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
