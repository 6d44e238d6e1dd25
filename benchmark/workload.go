package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/report"
)

const (
	quickstartSpec = "examples/campaigns/quickstart.campaign"
	liteSpec       = "examples/campaigns/lite.campaign"
)

// refKind names how a workload's reference report digest is computed.
type refKind int

const (
	// refOracle: the NoBatch (cell-by-cell oracle) sweep of the same config.
	refOracle refKind = iota
	// refUnsharded: the in-process unsharded sweep of the same config.
	refUnsharded
	// refReplay: the warm-up sweep's own digest (run-to-run equality), plus
	// a sampled re-execution of memo-replayed vehicles.
	refReplay
)

// workload is one fixed sweep shape the benchmark drives closed-loop. Worker
// and client counts are constants, not derived from the host, so the same
// workload does the same work everywhere.
type workload struct {
	name string
	// spec is the campaign file, relative to the repository root.
	spec string
	// baseline names the family of unmutated Table I threats, which HPE
	// enforcement must block in every run.
	baseline string
	fleet    int
	// workers is the engine worker count per sweep (per shard child when
	// sharded).
	workers int
	// clients issue sweeps back to back, each waiting for its previous one.
	clients   int
	errorRate float64
	// horizon is the live-phase traffic horizon (0: the campaign default).
	horizon time.Duration
	// shards > 1 runs each sweep as that many carsim subprocess shards, at
	// most shardPar at once. carsim flags carry no error rate or horizon, so
	// a sharded workload leaves both at their defaults.
	shards   int
	shardPar int
	ref      refKind
}

// workloads are the benchmark's inputs; README.md records why each one is
// there.
var workloads = []*workload{
	{
		name: "exec-quickstart",
		spec: quickstartSpec, baseline: "baseline",
		fleet: 1, workers: 1, clients: 2, ref: refOracle,
	},
	{
		name: "replay-fleet",
		spec: quickstartSpec, baseline: "baseline",
		fleet: 100000, workers: 2, clients: 1, ref: refReplay,
	},
	{
		name: "noisy-live",
		spec: liteSpec, baseline: "spot-check",
		fleet: 200, workers: 2, clients: 1, errorRate: 0.02, horizon: 250 * time.Millisecond, ref: refOracle,
	},
	{
		name: "shard-exec",
		spec: quickstartSpec, baseline: "baseline",
		fleet: 20000, workers: 1, clients: 1, shards: 4, shardPar: 2, ref: refUnsharded,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// bench is one workload prepared to sweep: the compiled plan, the sweep
// configuration and the reference digest every sweep's report must match.
type bench struct {
	w      *workload
	root   string
	carsim string
	seed   uint64
	plan   *campaign.Plan
	cfg    campaign.SweepConfig
	want   [sha256.Size]byte
}

// setup parses and compiles the spec, builds the harness and runs one
// warm-up sweep: the work a user pays before the first sweep they wait for.
// carsim is the shard child binary (used only by sharded workloads).
func setup(root, carsim string, w *workload, seed uint64) (*bench, error) {
	raw, err := os.ReadFile(filepath.Join(root, w.spec))
	if err != nil {
		return nil, err
	}
	spec, err := campaign.Parse(string(raw))
	if err != nil {
		return nil, err
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		return nil, err
	}
	h, err := attack.NewHarnessBackend("")
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, root: root, carsim: carsim, seed: seed, plan: plan}
	b.cfg = campaign.SweepConfig{
		Fleet:          w.fleet,
		Workers:        w.workers,
		RootSeed:       seed,
		TrafficHorizon: w.horizon,
		ErrorRate:      w.errorRate,
		Harness:        h,
	}
	if w.shards > 1 {
		b.cfg.Shards = w.shards
		b.cfg.ShardParallelism = w.shardPar
		b.cfg.SpawnShard = b.spawn(nil, 0, 0)
	}
	rep, view, err := b.sweep(b.cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	b.want = sha256.Sum256([]byte(view))
	return b, b.checkBaseline(rep)
}

// sweep is one unit of timed work: the sweep and the render a carsim user
// waits for.
func (b *bench) sweep(cfg campaign.SweepConfig) (*campaign.CampaignReport, string, error) {
	rep, err := campaign.Sweep(b.plan, cfg)
	if err != nil {
		return nil, "", err
	}
	return rep, report.CampaignView(rep), nil
}

// reference replaces the warm-up digest with the workload's independent
// reference and checks the premises the fast path relies on. Untimed.
func (b *bench) reference() error {
	switch b.w.ref {
	case refOracle:
		cfg := b.cfg
		cfg.NoBatch = true
		_, view, err := b.sweep(cfg)
		if err != nil {
			return fmt.Errorf("oracle reference: %w", err)
		}
		b.want = sha256.Sum256([]byte(view))
	case refUnsharded:
		cfg := b.cfg
		cfg.Shards, cfg.ShardParallelism, cfg.SpawnShard = 0, 0, nil
		_, view, err := b.sweep(cfg)
		if err != nil {
			return fmt.Errorf("unsharded reference: %w", err)
		}
		b.want = sha256.Sum256([]byte(view))
	case refReplay:
		return b.checkMemo(16)
	}
	return nil
}

// checkMemo re-executes n seeded vehicle indices alone on the oracle path and
// requires each to equal that vehicle's report from a batched run, where
// almost every vehicle is a memo copy: the memo's seed-invariance premise,
// checked from outside the engine.
func (b *bench) checkMemo(n int) error {
	ecfg, err := campaign.EngineConfig(b.plan, b.cfg)
	if err != nil {
		return err
	}
	fr, err := engine.Run(ecfg)
	if err != nil {
		return fmt.Errorf("batched reference: %w", err)
	}
	for k := 0; k < n; k++ {
		i := int(engine.VehicleSeed(b.seed, k) % uint64(b.w.fleet))
		one := ecfg
		one.Fleet, one.IndexOffset, one.Workers, one.NoBatch = 1, i, 1, true
		got, err := engine.Run(one)
		if err != nil {
			return fmt.Errorf("oracle vehicle %d: %w", i, err)
		}
		if !reflect.DeepEqual(got.Vehicles[0], fr.Vehicles[i]) {
			return fmt.Errorf("vehicle %d: batched report differs from its oracle re-execution", i)
		}
	}
	return nil
}

// check verifies one sweep's outcome: no error, the rendered report matches
// the reference digest, and the baseline invariant holds.
func (b *bench) check(rep *campaign.CampaignReport, view string, err error) error {
	if err != nil {
		return err
	}
	if sha256.Sum256([]byte(view)) != b.want {
		return errors.New("report digest differs from the reference")
	}
	return b.checkBaseline(rep)
}

// checkBaseline asserts that HPE blocks every Table I baseline threat.
func (b *bench) checkBaseline(rep *campaign.CampaignReport) error {
	for _, f := range rep.Families {
		if f.Name != b.w.baseline {
			continue
		}
		for _, rs := range f.Regimes {
			if rs.Regime == attack.EnforceHPE {
				if s := rs.Summary; s.Runs == 0 || s.Blocked != s.Runs {
					return fmt.Errorf("family %s: HPE blocked %d of %d baseline runs", f.Name, s.Blocked, s.Runs)
				}
				return nil
			}
		}
	}
	return fmt.Errorf("family %s has no HPE regime", b.w.baseline)
}
