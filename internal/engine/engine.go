// Package engine is the fleet-scale simulation engine: it runs N independent
// vehicle simulations — each owning its own sim.Scheduler, canbus.Bus,
// car.Car and HPE/MAC stack — across a bounded worker pool and merges the
// per-vehicle outcomes into one fleet-wide report.
//
// The paper's evaluation (§V) drives a single connected car; its update
// story (§V-A.2) is about an OEM operating a population of them. The engine
// is the unit of scale that bridges the two: fleet sweeps of the Table I
// attack matrix, population-wide bus metrics, and live vehicles for the
// staged policy rollout in internal/fleet.
//
// # Pooled arenas
//
// By default each worker constructs its simulation stack once — an
// attack.Arena (car + per-node policy engines) and a MAC server, all owned
// by the worker's goroutine — and resets it in place between the live
// background simulation, the MAC probe and every scenario×regime cell. A
// thousand-vehicle sweep therefore builds `workers` vehicle stacks instead
// of ~7000, which is worth ~3.6x in fleet-sweep throughput. The
// Config.NoBatch oracle is the one path that builds every stack from
// scratch (see Batched evaluation).
//
// # Vehicle-major scenario groups
//
// A run sweeps one or more ScenarioGroups: a compiled campaign's families,
// or the single Table I group of carsim's fleet mode. The sweep visits each
// vehicle once — live background phase, then every group's scenario×regime
// cells back to back on the same warm arena — instead of one barriered pass
// per group. Cells take no seed, so every (group, vehicle) block is a pure
// function of the group; cross-group isolation rests on the arena's
// reset-equals-fresh contract (each cell resets the vehicle).
//
// # Batched evaluation
//
// By default the sweep runs batched: scenario groups are planned into
// prefix-sharing buckets (attack.PlanBatches), each worker's arena replays a
// bucket's shared pre-attack prefix once per enforcement regime and forks
// the remaining cells from a checkpoint, and — because attack cells take no
// seed — the sweep executes the run's first vehicle before the worker pool
// starts and stamps its seed-invariant result on every later vehicle:
// attack aggregates and MAC probe counts always, live counters too when
// ErrorRate is zero (a stamped vehicle then executes nothing; otherwise only
// its live phase runs). With two or more workers the first vehicle's cells
// run on up to Workers goroutines: they split into the plans' (group,
// bucket, regime) units, which the goroutines claim off one counter, each
// on an arena of its own, while the caller's arena runs the vehicle's live
// phase and MAC probe. If any of it fails, the vehicle runs again on the
// one-goroutine supervised path, so its Health and error are the ones a
// one-worker run reports (see runFirst). The stamp is built once and
// shared read-only — stamped reports point at its slices instead of
// copying them. When nothing is left to execute, the sweep starts no
// workers: the stamped vehicles are one run, which folds into the fleet
// aggregates as one count (MergeFold's count fold) and reaches the emitter
// in one call (see Aggregate); Run lists it through AppendRun. Vehicles
// that execute anything — every live phase under bus errors, every vehicle
// of an unstamped run — are claimed one at a time off an atomic cursor,
// and each folds as the ordered emitter releases it, in index order. If
// the first vehicle's visit fails, nothing is stamped and every vehicle
// executes.
// Config.NoBatch selects the reference oracle instead: no pooling, no
// checkpoints, no stamping — every vehicle phase and every cell runs on a
// freshly constructed stack, cell by cell. Both render byte-identical
// reports, which the equivalence tests and the CLI differential test
// assert. Inside the batched path, BatchRun.RunOracle replays single cells
// cell by cell on the same arena for demotion and verify sampling.
//
// # Determinism
//
// Every vehicle derives its seed from the root seed via a SplitMix64 step,
// so vehicle i behaves identically regardless of which worker runs it or in
// what order vehicles are scheduled. Reports are merged in vehicle-index
// order; two runs with the same Config produce byte-identical rendered
// reports whatever the worker count, batched or oracle.
//
// # Failure containment
//
// All cell execution runs under a supervisor (supervisor.go), or, on the
// first vehicle's parallel matrix, makes one attempt with the same checks
// and hands any failure to the supervised visit: a cell that
// panics, fails its arena integrity checksum, overruns its virtual-time
// budget or hits a non-quiescent capture is quarantined and retried (up to
// twice per rung, rebuilding the pooled arena where the failure class
// demands it); a cell that exhausts its batched retries demotes the rest of
// the vehicle's visit to the cell-by-cell oracle; only a cell failing every
// rung makes Run return an error — and even then Run returns the merged
// partial report alongside it. Config.Chaos arms deterministic fault
// injection (internal/chaos) for drilling these paths, and
// Config.VerifySample cross-checks a deterministic fraction of batched
// cells against the oracle inline. Containment history accumulates in the
// report's Health ledger, itself a pure function of the config — arming
// chaos or sampling disables stamping so every vehicle really executes its
// cells. See DESIGN.md §11.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/car"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mac"
)

// ScenarioGroup is one independently seeded scenario×regime block of a
// vehicle visit — a campaign family, in campaign terms. A multi-group run
// sweeps every group against each vehicle in one pass: the worker claims the
// vehicle, runs the live background phase once, then executes group after
// group on the same warm arena. Per-group summaries are kept separate so the
// caller can fold them however its report requires.
type ScenarioGroup struct {
	// Name labels the group in the merged report (informational).
	Name string
	// Scenarios is the group's attack matrix (required).
	Scenarios []attack.Scenario
	// Regimes is the group's enforcement sweep (required).
	Regimes []attack.Enforcement
	// RootSeed is the fleet root of the run when the group is Groups[0]:
	// vehicle i's live phase runs with VehicleSeed(RootSeed, i), the verify
	// sampler keys on it and the report header echoes it. Cells take no
	// seed, so no other group's root is read.
	RootSeed uint64
}

// Config parameterises a fleet run.
type Config struct {
	// Fleet is the number of vehicles simulated (default 1).
	Fleet int
	// Workers bounds the worker pool (default runtime.GOMAXPROCS(0),
	// capped at Fleet). On a run that stamps (batched, no chaos or verify
	// sampling) it also bounds the goroutines that share the first
	// vehicle's cells, each on an arena of its own.
	Workers int
	// IndexOffset shifts this run's vehicle indices into the global fleet
	// index space: the run simulates global vehicles [IndexOffset,
	// IndexOffset+Fleet). Seeds, VINs, and every supervision coordinate
	// (chaos fault rolls, verify sampling) key on the global index, so a
	// sharded sweep — N runs covering contiguous ranges — gives every
	// vehicle exactly the trajectory the unsharded run would, whatever the
	// shard layout. Zero (the default) is the unsharded whole-fleet run.
	IndexOffset int
	// Groups are the scenario groups swept per vehicle visit (at least one;
	// an empty Groups is an error). Each group carries its own scenarios
	// and regimes; the first group's RootSeed is the run's fleet root. The
	// Table I sweep is one group of attack.Scenarios().
	Groups []ScenarioGroup
	// TrafficHorizon is the virtual span of the live background simulation
	// (default 50ms).
	TrafficHorizon time.Duration
	// ErrorRate enables bus error injection in the background simulation.
	ErrorRate float64
	// Harness supplies the attack harness (compiled policy and enforcement
	// backend) every vehicle enforces with; nil means
	// attack.NewHarness(), the table backend. A caller that sweeps several
	// runs with one policy — shard.Run, the rollout gate — builds the
	// harness once and shares it.
	Harness *attack.Harness
	// SkipMAC skips the per-vehicle MAC least-privilege probe (and the MAC
	// module derivation entirely).
	SkipMAC bool
	// NoBatch selects the reference oracle instead of the pooled batched
	// executor: no pooled arenas, no prefix-checkpointed scenario batching
	// and no cross-vehicle stamping — every vehicle phase and every
	// scenario×regime cell constructs its simulation stack from scratch and
	// runs cell by cell, as the engine originally did. Batched (default) and
	// oracle runs render byte-identical reports; the oracle survives as the
	// reference the equivalence tests and the CLI differential test compare
	// against.
	NoBatch bool
	// Chaos optionally arms deterministic fault injection: the plan decides,
	// as a pure function of (vehicle, group, regime, scenario, attempt)
	// coordinates, which cells panic, corrupt their checkpoint restore,
	// overrun their deadline, or crash the whole vehicle visit. An active
	// plan arms supervision (see supervised). Nil means no injection (the
	// supervisor still contains organic failures).
	Chaos *chaos.Plan
	// VerifySample, when positive, cross-checks that deterministic fraction
	// of batched (checkpoint-forked) cells against the cell-by-cell oracle
	// inline. A mismatch is booked in the Health ledger, demotes the vehicle
	// to the oracle path, and the oracle's result stands. Like Chaos, a
	// non-zero sample rate arms supervision.
	VerifySample float64
	// OnVehicle, when non-nil, is Run's per-vehicle hook: it is invoked
	// once per vehicle of Run's listing in ascending vehicle-index order,
	// as soon as every lower-indexed vehicle has also completed. Callbacks
	// never run concurrently, and the report pointer is only valid for the
	// duration of the call. Where vehicles execute, callbacks run
	// serialised under an internal lock on worker goroutines. Errored
	// vehicles still emit their (partial) report, mirroring how Run merges
	// partial reports into the fleet result. Because vehicles are claimed
	// in index order off an atomic cursor, completion order tracks index
	// order and the emitter's reorder window stays near the worker count.
	// Aggregate takes its emitter as an argument instead, and refuses a
	// Config with OnVehicle set.
	OnVehicle func(*VehicleReport)
}

// supervised reports whether supervision is armed: chaos injection or
// inline verification. An armed run stamps nothing, since stamped vehicles
// execute no cells and would dodge their injected faults and verify
// samples, and its report renders the health line even when the ledger is
// all zeros: a chaos run that contained nothing says so.
func (c *Config) supervised() bool { return c.Chaos.Active() || c.VerifySample > 0 }

// The live background simulation's legitimate traffic (car.StartTraffic):
// one tick of periodic frames per trafficPeriod of virtual time, reporting
// trafficSpeed as the vehicle speed. No caller has ever varied either.
const (
	trafficPeriod = time.Millisecond
	trafficSpeed  = 88
)

func (c *Config) applyDefaults() error {
	if c.Fleet <= 0 {
		c.Fleet = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Fleet {
		c.Workers = c.Fleet
	}
	if len(c.Groups) == 0 {
		return errors.New("engine: no scenario groups")
	}
	for i := range c.Groups {
		if len(c.Groups[i].Scenarios) == 0 {
			return fmt.Errorf("engine: group %d (%q) has no scenarios", i, c.Groups[i].Name)
		}
		if len(c.Groups[i].Regimes) == 0 {
			return fmt.Errorf("engine: group %d (%q) has no regimes", i, c.Groups[i].Name)
		}
	}
	if c.TrafficHorizon <= 0 {
		c.TrafficHorizon = 50 * time.Millisecond
	}
	return nil
}

// VehicleSeed derives the deterministic seed of vehicle index from the root
// seed (a SplitMix64 output step, so neighbouring indices decorrelate).
func VehicleSeed(root uint64, index int) uint64 {
	z := root + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// macCheck is one precomputed least-privilege probe: the security contexts
// are built once per fleet run instead of re-rendering the SELinux type
// strings for every vehicle (string formatting was ~10% of a sweep's CPU).
type macCheck struct {
	src, tgt mac.Context
}

// shared holds the immutable artifacts every vehicle reuses: the compiled
// policy (inside the harness), the derived MAC module and the precomputed
// probe contexts.
type shared struct {
	cfg       Config
	harness   *attack.Harness
	macModule *mac.Module
	probes    []macCheck // legitimate catalog writers, in catalog order
	spoof     macCheck   // the infotainment→ECU spoof probe
	// plans holds one prefix-bucketed batch plan per group (nil when
	// Config.NoBatch): plans are immutable, so all workers share them.
	plans []*attack.BatchPlan
	// sup is the resolved supervision configuration (chaos plan, verify
	// sampling) every worker consults.
	sup supervisorCfg
	// stamp is the run's seed-invariant result: set before the worker pool
	// starts, read-only afterwards, nil when every vehicle executes.
	stamp *stamp
}

// stamp is the part of a run's first executed vehicle that is the same for
// every vehicle, stamped on every later vehicle instead of re-simulated.
// Cells take no seed (attack.Harness) and the MAC probe is a pure function
// of the derived module, so the attack aggregates and probe counts never
// vary. The live phase is the one seeded phase, and its seed's only
// consumer is the bus error-injection RNG, which it draws from only when
// Config.ErrorRate is non-zero. Stamped reports share first's Groups
// slices, so no consumer may write through them.
type stamp struct {
	// first is the first vehicle's report with its Health cleared: a
	// stamped vehicle contains nothing.
	first VehicleReport
	// live reports that the live phase is seed-invariant too (ErrorRate
	// zero): stamped vehicles then execute nothing.
	live bool
}

// onto stamps the seed-invariant sections — MAC probe counts and attack
// aggregates — on a vehicle whose live phase executed.
func (st *stamp) onto(rep *VehicleReport) {
	rep.MACChecks, rep.MACAllowed = st.first.MACChecks, st.first.MACAllowed
	rep.Groups = st.first.Groups
}

// buildProbes precomputes the least-privilege probe contexts.
func buildProbes(sh *shared) {
	for _, m := range car.Catalog {
		for _, w := range m.Writers {
			sh.probes = append(sh.probes, macCheck{
				src: core.MACContext(w),
				tgt: core.MessageContext(m.ID),
			})
		}
	}
	sh.spoof = macCheck{
		src: core.MACContext(car.NodeInfotainment),
		tgt: core.MessageContext(car.IDECUCommand),
	}
}

// Run executes the fleet sweep and merges per-vehicle outcomes in vehicle
// order. The sweep is vehicle-major: each claimed vehicle runs its live
// background phase once and then every group's scenario×regime cells back
// to back on the same warm arena — one pass over the fleet, no per-group
// barrier, no per-group worker-pool or arena rebuild.
//
// Run is Aggregate's sweep plus a listing: each run the sweep emits is
// appended to the report's Vehicles through AppendRun, and OnVehicle, if
// set, is called once per vehicle listed.
func Run(cfg Config) (*FleetReport, error) {
	sh, err := newShared(cfg)
	if err != nil {
		return nil, err
	}
	fn := cfg.OnVehicle
	vehicles := make([]VehicleReport, 0, sh.cfg.Fleet)
	fr, err := sh.sweep(func(v *VehicleReport, n int) {
		lo := len(vehicles)
		vehicles = AppendRun(vehicles, v, n)
		if fn != nil {
			for i := lo; i < len(vehicles); i++ {
				fn(&vehicles[i])
			}
		}
	})
	fr.Vehicles = vehicles
	return fr, err
}

// Aggregate runs exactly the sweep Run runs and returns the same report
// without its per-vehicle section: FleetReport.Vehicles is nil, and no
// vehicle report outlives its fold. On a fully stamped run (batched, no
// chaos or verify sampling, ErrorRate zero) the sweep executes the first
// vehicle and folds the other Fleet-1 as one count, with no workers.
// It is the entry point for callers that read only the fleet aggregates
// or consume vehicles as runs: campaign sweeps and shard ranges.
//
// emit, when non-nil, receives the vehicles in index order as runs, under
// OnVehicle's guarantees (never concurrently, v valid only for the call):
// v stands for the n >= 1 vehicles v.Index … v.Index+n-1, which differ from
// v only in Index — AppendRun lists them all. A fully stamped range is
// emitted as its first vehicle and one run of Fleet-1; every other vehicle
// is a run of one.
// Aggregate returns an error if cfg.OnVehicle is set.
func Aggregate(cfg Config, emit func(v *VehicleReport, n int)) (*FleetReport, error) {
	if cfg.OnVehicle != nil {
		return nil, errors.New("engine: Aggregate emits through its emit argument; Config.OnVehicle is Run's hook")
	}
	sh, err := newShared(cfg)
	if err != nil {
		return nil, err
	}
	return sh.sweep(emit)
}

// newShared applies cfg's defaults and builds the artifacts every vehicle
// of the run reuses.
func newShared(cfg Config) (*shared, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	h := cfg.Harness
	if h == nil {
		var err error
		if h, err = attack.NewHarness(); err != nil {
			return nil, err
		}
	}
	sh := &shared{cfg: cfg, harness: h}
	sh.sup = supervisorCfg{
		plan:       cfg.Chaos,
		verify:     cfg.VerifySample,
		verifySeed: cfg.Groups[0].RootSeed,
	}
	if !cfg.NoBatch {
		sh.plans = make([]*attack.BatchPlan, len(cfg.Groups))
		for gi := range cfg.Groups {
			g := &cfg.Groups[gi]
			sh.plans[gi] = attack.PlanBatches(g.Scenarios, g.Regimes...)
		}
	}
	if !cfg.SkipMAC {
		analysis, err := car.Analyze()
		if err != nil {
			return nil, err
		}
		module, err := core.DeriveMACModule(analysis, "car-base", 1)
		if err != nil {
			return nil, err
		}
		sh.macModule = module
		buildProbes(sh)
	}
	return sh, nil
}

// sweep runs the fleet and folds every vehicle where it is released, in
// index order: the fully stamped range as its first vehicle and one run of
// the rest, executed vehicles one at a time as the ordered emitter releases
// them. emit, if set, receives each run once it has folded, as Aggregate
// describes.
func (sh *shared) sweep(emit func(*VehicleReport, int)) (*FleetReport, error) {
	cfg := &sh.cfg
	m := newMergeFold(*cfg)
	release := func(v *VehicleReport, n int) {
		m.FoldRun(v, n)
		if emit != nil {
			emit(v, n)
		}
	}
	// Stamping is off whenever supervision is armed. Otherwise the first
	// vehicle executes before the pool starts, its cells on up to Workers
	// goroutines, and its report becomes the stamp if its visit succeeds.
	// A stack that fails to build here fails again in the workers, which
	// report it.
	var first VehicleReport
	var firstErr error
	executed := false
	if !cfg.NoBatch && !cfg.supervised() {
		if a, err := newArena(sh); err == nil {
			executed = true
			first, firstErr = sh.runFirst(a, cfg.IndexOffset)
			if firstErr == nil {
				sh.stamp = &stamp{first: first, live: cfg.ErrorRate == 0}
				sh.stamp.first.Health = Health{}
			}
		}
	}
	// With a full stamp no later vehicle executes, so no worker starts:
	// every later vehicle is the stamp under its own index, one run headed
	// by vehicle 1.
	if st := sh.stamp; st != nil && st.live {
		release(&first, 1)
		if n := cfg.Fleet - 1; n > 0 {
			rest := st.first
			rest.Index = cfg.IndexOffset + 1
			release(&rest, n)
		}
		// Keep one yield per sweep, as the executing path's wait for its
		// workers is. Two callers sweeping one-vehicle fleets back to back
		// on two Ps otherwise never leave their goroutines, so a GC cycle's
		// mark worker waits for a P until the preemption tick while write
		// barriers stay on. Without this yield the benchmark's
		// exec-quickstart p90 read 48% higher in 6 of 6 pairs and the write
		// barrier's share of the CPU tripled (EXPERIMENTS.md §17).
		runtime.Gosched()
		return m.Finish(), nil
	}

	// Work distribution is a shared atomic cursor, not a channel: the old
	// unbuffered-channel dispatcher made the feeding goroutine a
	// serialization point at fleet=1000 (one rendezvous per vehicle).
	// Claiming indices one at a time with a fetch-add keeps the workers
	// balanced and completion close to index order, which keeps what the
	// ordered emitter holds small.
	ord := &orderedEmit{release: release}
	var next atomic.Int64
	if executed {
		next.Store(1)
		ord.complete(0, &first, firstErr)
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s stack
			var serr error
			var rep VehicleReport // one per worker: complete copies what it keeps
			reported := false
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Fleet {
					return
				}
				// Every worker builds its own stack on its own goroutine, once
				// it has a vehicle to execute. Handing the first vehicle's
				// stack to a worker instead measured ~20% slower live phases
				// with two workers executing every live phase (the
				// benchmark's noisy-live workload).
				if s == nil && serr == nil {
					s, serr = newStack(sh)
				}
				var err error
				switch {
				case serr != nil:
					// Stack construction only fails on programming errors;
					// record it once, then drain this worker's share of the
					// cursor so the run still terminates, each drained
					// vehicle under its own Index.
					rep = VehicleReport{Index: i + cfg.IndexOffset}
					if !reported {
						err, reported = serr, true
					}
				default:
					// Simulate under the global fleet index (shifted by the
					// shard offset); the emitter still orders by the local
					// index, so merge order stays range-local.
					rep, err = sh.runVehicle(s, i+cfg.IndexOffset)
				}
				ord.complete(i, &rep, err)
			}
		}()
	}
	wg.Wait()
	// Unrecoverable vehicles surface as an error, but the sweep still
	// merges what every vehicle did complete: callers flush the partial
	// fleet report (with its Health ledger) alongside the failure.
	return m.Finish(), errors.Join(ord.errs...)
}

// stack is the vehicle stack a visit executes on: a worker's pooled arena
// (the batched default), or fresh construction (the NoBatch oracle the
// batched path is compared against). The visit itself — phase order,
// seeding, supervision — is the same on both.
type stack interface {
	// startLive returns a reset vehicle with a provisioned HPE stack, ready
	// for the live background simulation.
	startLive(sh *shared, cfg car.Config) (*car.Car, error)
	// probe runs the MAC least-privilege probe on a clean MAC server.
	probe(sh *shared, rep *VehicleReport) error
	// bind points one group's cell executor at the stack.
	bind(e *cellExec)
	// rebuild replaces the stack after a crashed visit.
	rebuild(sh *shared) error
}

func newStack(sh *shared) (stack, error) {
	if sh.cfg.NoBatch {
		return fresh{}, nil
	}
	a, err := newArena(sh)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// arena is one worker's reusable vehicle stack: the attack arena (car +
// pooled policy engines), the one cursor every unit of its cells walks,
// and a MAC server with the derived module loaded, all owned by that
// worker's goroutine. Constructed once per worker; every vehicle the worker
// claims resets it in place instead of rebuilding ~7000 topologies per
// thousand-vehicle sweep.
type arena struct {
	att *attack.Arena
	cur *attack.BatchRun
	srv *mac.Server // nil on a cell arena
}

// newCellArena builds the part of a stack that runs cells: the attack
// arena and its cursor. A parallel matrix helper runs nothing else.
func newCellArena(sh *shared) (*arena, error) {
	att, err := sh.harness.NewArena()
	if err != nil {
		return nil, err
	}
	return &arena{att: att, cur: att.NewBatchRun(sh.plans[0])}, nil
}

func newArena(sh *shared) (*arena, error) {
	a, err := newCellArena(sh)
	if err != nil {
		return nil, err
	}
	if !sh.cfg.SkipMAC {
		a.srv = mac.NewServer()
		if err := a.srv.Load(sh.macModule); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *arena) startLive(_ *shared, cfg car.Config) (*car.Car, error) { return a.att.StartLive(cfg) }

func (a *arena) probe(sh *shared, rep *VehicleReport) error {
	a.srv.Reset()
	macProbe(rep, a.srv, sh)
	return nil
}

func (a *arena) bind(e *cellExec) {
	e.owner = a
	e.br = a.cur
}

func (a *arena) rebuild(sh *shared) error {
	na, err := newArena(sh)
	if err != nil {
		return err
	}
	*a = *na
	return nil
}

// fresh is the NoBatch oracle's stack: every phase constructs its
// simulation stack from scratch, as the engine originally did — its own car
// and deployed policy engines for the live phase, its own MAC server, and a
// fresh car per cell (cell by cell; no checkpointing). There is no worker
// stack to rebuild, so a crash retry simply re-runs the vehicle.
type fresh struct{}

func (fresh) startLive(sh *shared, cfg car.Config) (*car.Car, error) {
	c, err := car.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sh.harness.DeployEngines(c.Bus(), c, car.AllNodes...); err != nil {
		return nil, err
	}
	return c, nil
}

func (fresh) probe(sh *shared, rep *VehicleReport) error {
	srv := mac.NewServer()
	if err := srv.Load(sh.macModule); err != nil {
		return err
	}
	macProbe(rep, srv, sh)
	return nil
}

func (fresh) bind(*cellExec) {}

func (fresh) rebuild(*shared) error { return nil }

// runVehicle produces one vehicle's report on stack s. Without a stamp the
// whole visit executes under the visit supervisor, which re-runs it on a
// rebuilt stack after a crash (injected or organic panic at visit scope).
// With a stamp, only the seed-dependent live phase executes — supervised
// the same way — and the stamp supplies the rest. A fully seed-invariant
// stamp never gets here: sweep emits those vehicles as one run.
func (sh *shared) runVehicle(s stack, index int) (VehicleReport, error) {
	st := sh.stamp
	visit := func(attempt int, h *Health) (VehicleReport, error) {
		if st == nil {
			return sh.visit(s, index, attempt, h)
		}
		rep, err := sh.visitLive(s, index)
		if err == nil {
			st.onto(&rep)
		}
		return rep, err
	}
	return superviseVisit(visit, func() error { return s.rebuild(sh) })
}

// visitLive is one attempt of a visit's opening phase: the vehicle's
// live background simulation — its own traffic, seeded from its index,
// over the configured horizon on a reset vehicle with provisioned policy
// engines.
func (sh *shared) visitLive(s stack, index int) (rep VehicleReport, err error) {
	defer contain(index, &err)
	rep = VehicleReport{Index: index}
	seed := VehicleSeed(sh.cfg.Groups[0].RootSeed, index)
	c, err := s.startLive(sh, car.Config{Seed: seed, ErrorRate: sh.cfg.ErrorRate})
	if err != nil {
		return rep, err
	}
	c.StartTraffic(trafficPeriod, sh.cfg.TrafficHorizon, trafficSpeed)
	c.Scheduler().Run()
	collectLive(&rep, c)
	return rep, nil
}

// visitHead is one attempt of the phases a visit runs before its cells:
// the live phase, then the MAC probe.
func (sh *shared) visitHead(s stack, index int) (rep VehicleReport, err error) {
	if rep, err = sh.visitLive(s, index); err != nil {
		return rep, err
	}
	defer contain(index, &err)
	if !sh.cfg.SkipMAC {
		err = s.probe(sh, &rep)
	}
	return rep, err
}

// visit is one attempt of one whole vehicle visit: the live phase, the MAC
// probe, then every group's scenario×regime block on the same stack, every
// cell supervised. The demotion latch spans the visit: once any cell falls
// back to the oracle, the rest of the vehicle follows.
func (sh *shared) visit(s stack, index, attempt int, h *Health) (rep VehicleReport, err error) {
	if rep, err = sh.visitHead(s, index); err != nil {
		return rep, err
	}
	defer contain(index, &err)
	rep.Groups = make([][]attack.RegimeSummary, len(sh.cfg.Groups))
	var demoted bool
	for gi := range sh.cfg.Groups {
		g := &sh.cfg.Groups[gi]
		if sh.sup.plan.CrashFault(index, gi, attempt) {
			panic(&chaos.InjectedCrash{Vehicle: index, Group: gi, Attempt: attempt})
		}
		e := &cellExec{sup: &sh.sup, health: h, sh: sh, vehicle: index, group: gi, demoted: &demoted}
		s.bind(e)
		sums, gerr := runGroupCells(e, g)
		rep.Groups[gi] = sums
		if gerr != nil {
			return rep, fmt.Errorf("group %d (%q): %w", gi, g.Name, gerr)
		}
	}
	return rep, nil
}

// contain converts a panic escaping a visit into ErrVehicleCrash, the
// failure the visit supervisor retries. Deferred directly by each visit
// phase.
func contain(index int, err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("%w: vehicle %d: %v", ErrVehicleCrash, index, p)
	}
}

// foldGroups flattens per-group regime summaries into one aggregate per
// regime, keyed by first appearance: a regime that several groups sweep,
// or one group sweeps twice, folds into one. The result reuses dst's
// storage and never aliases a group's slice, so a caller may fold into it.
func foldGroups(dst []attack.RegimeSummary, groups [][]attack.RegimeSummary) []attack.RegimeSummary {
	out := dst[:0]
	for _, g := range groups {
		for _, rs := range g {
			merged := false
			for i := range out {
				if out[i].Regime == rs.Regime {
					out[i].Summary.Merge(rs.Summary)
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, rs)
			}
		}
	}
	return out
}

// collectLive folds the live background simulation's bus and scheduler
// counters into the vehicle report.
func collectLive(rep *VehicleReport, c *car.Car) {
	bs := c.Bus().Stats()
	rep.FramesDelivered = bs.FramesDelivered
	rep.BusErrors = bs.Errors
	rep.WriteBlocked = bs.WriteBlocked
	rep.ReadBlocked = bs.ReadBlocked
	rep.AbortedTx = bs.AbortedTx
	rep.Utilisation = c.Bus().Utilisation()
	rep.SchedulerSteps = c.Scheduler().Steps()
}

// macProbe runs the least-privilege probe: every legitimate catalog writer
// must be allowed, plus one spoof path (infotainment commanding the ECU)
// that must not be.
func macProbe(rep *VehicleReport, srv *mac.Server, sh *shared) {
	for _, p := range sh.probes {
		rep.MACChecks++
		if srv.Check(p.src, p.tgt, core.MACClassCAN, core.MACPermWrite).Allowed {
			rep.MACAllowed++
		}
	}
	rep.MACChecks++
	if srv.Check(sh.spoof.src, sh.spoof.tgt, core.MACClassCAN, core.MACPermWrite).Allowed {
		rep.MACAllowed++ // would indicate a broken least-privilege matrix
	}
}
