package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/car"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/shard/wire"
)

// The engine's live-phase defaults (engine.Config.TrafficPeriod and Speed),
// which campaign sweeps leave unset. The vehicle decomposition replays the
// live phase with the same values.
const (
	livePeriod = time.Millisecond
	liveSpeed  = 88
)

// Vehicles sampled per traced sweep for the live-phase decomposition, and the
// most vehicles the offline wire probe encodes.
const (
	liveSamples = 4
	wireSample  = 20000
)

// Cell classes of a batched cursor: a singleton bucket's plain run, the
// first cell of a shared-prefix bucket (replays the prefix and captures the
// checkpoint), and a cell forked from that checkpoint.
const (
	cellSingle = iota
	cellPrime
	cellFork
)

var cellClasses = [...]string{"single", "prime", "fork"}

// layerPlan is what a traced sweep precomputes once: the whole-fleet engine
// config and its groups' batch plans, as the engine derives them.
type layerPlan struct {
	ecfg  engine.Config
	plans []*attack.BatchPlan
}

func (b *bench) layerPlan() (*layerPlan, error) {
	ecfg, err := campaign.EngineConfig(b.plan, b.cfg)
	if err != nil {
		return nil, err
	}
	lp := &layerPlan{ecfg: ecfg}
	for _, g := range ecfg.Groups {
		lp.plans = append(lp.plans, attack.PlanBatches(g.Scenarios, g.Regimes...))
	}
	return lp, nil
}

// tracedSweep runs one real sweep and render under spans, as children of
// root, and checks the report. It returns the sweep's duration.
func (b *bench) tracedSweep(tr *tracer, root, it int, m map[string]float64) (time.Duration, error) {
	cfg := b.cfg
	sw := tr.begin("campaign.sweep", root, it)
	if cfg.SpawnShard != nil {
		cfg.SpawnShard = b.spawn(tr, sw, it)
	}
	rep, err := campaign.Sweep(b.plan, cfg)
	sweepDur := tr.end(sw)
	if err != nil {
		return 0, err
	}
	rd := tr.begin("report.render", root, it)
	view := report.CampaignView(rep)
	renderDur := tr.end(rd)
	if err := b.check(rep, view, nil); err != nil {
		return 0, err
	}
	m["sweep_ms"] = ms(sweepDur + renderDur)
	m["report.render_us"] = us(renderDur)
	return sweepDur, nil
}

// decompose replays the work of sweep it layer by layer through each
// layer's public API, under spans that are children of root, and checks the
// premises the fast paths rest on as it goes. sweepDur is the real sweep's
// duration, which the executed-work model is compared with.
func (b *bench) decompose(tr *tracer, lp *layerPlan, root, it int, sweepDur time.Duration, m map[string]float64) error {
	arenaUS, cellsUS, liveUS, err := b.vehicleLayers(tr, lp, root, it, m)
	if err != nil {
		return err
	}
	model := b.w.executedModel(arenaUS, cellsUS, liveUS)
	m["engine.overhead_us"] = us(sweepDur) - model
	m["trace.coverage"] = model / us(sweepDur)

	fr, err := b.engineLayers(tr, lp, root, it, m)
	if err != nil {
		return err
	}
	if err := wireLayers(tr, fr.Vehicles, root, it, m); err != nil {
		return err
	}
	if b.w.shards <= 1 {
		if err := b.spawnProbe(tr, lp, root, it); err != nil {
			return err
		}
	}
	shardLayers(tr.childrenOf(it), m)
	return nil
}

// vehicleLayers replays sampled vehicles of the sweep on one arena: the live
// phase through Arena.StartLive (and again on a fresh car for the HPE
// counters), then the first sample's cells through a batched cursor and an
// oracle cursor. It returns the arena build time, the summed cell time of
// one vehicle and the mean live-phase time, all in microseconds.
func (b *bench) vehicleLayers(tr *tracer, lp *layerPlan, root, it int, m map[string]float64) (arenaUS, cellsUS, liveUS float64, err error) {
	h := b.cfg.Harness
	sp := tr.begin("attack.arena_new", root, it)
	ar, err := h.NewArena()
	arenaUS = us(tr.end(sp))
	if err != nil {
		return 0, 0, 0, err
	}
	m["attack.arena_new_us"] = arenaUS

	var live, steps, frames, errs, decisions, blocked float64
	first := 0
	for k := 0; k < liveSamples; k++ {
		idx := int(engine.VehicleSeed(b.seed, it*liveSamples+k) % uint64(b.w.fleet))
		if k == 0 {
			first = idx
		}
		ccfg := car.Config{Seed: engine.VehicleSeed(lp.ecfg.Groups[0].RootSeed, idx), ErrorRate: b.w.errorRate}
		horizon := lp.ecfg.TrafficHorizon

		sp := tr.begin("attack.live", root, it)
		c, err := ar.StartLive(ccfg)
		if err != nil {
			return 0, 0, 0, err
		}
		c.StartTraffic(livePeriod, horizon, liveSpeed)
		c.Scheduler().Run()
		live += us(tr.end(sp))
		bs := c.Bus().Stats()
		steps += float64(c.Scheduler().Steps())
		frames += float64(bs.FramesDelivered)
		errs += float64(bs.Errors)

		sp = tr.begin("hpe.live", root, it)
		fc, err := car.New(ccfg)
		if err != nil {
			return 0, 0, 0, err
		}
		engines, err := h.DeployEngines(fc.Bus(), fc, car.AllNodes...)
		if err != nil {
			return 0, 0, 0, err
		}
		fc.StartTraffic(livePeriod, horizon, liveSpeed)
		fc.Scheduler().Run()
		tr.end(sp)
		for _, e := range engines {
			st := e.Stats()
			decisions += float64(st.Decisions)
			blocked += float64(st.ReadsBlocked + st.WritesBlocked)
		}
		if fb := fc.Bus().Stats(); fb != bs {
			return 0, 0, 0, fmt.Errorf("vehicle %d: fresh live phase bus stats %+v differ from the pooled arena's %+v", idx, fb, bs)
		}
	}
	n := float64(liveSamples)
	liveUS = live / n
	m["attack.live_us"] = liveUS
	m["sim.steps_per_vehicle"] = steps / n
	m["sim.ns_per_step"] = live * 1e3 / steps
	m["canbus.frames_per_vehicle"] = frames / n
	m["canbus.errors_per_vehicle"] = errs / n
	m["hpe.decisions_per_vehicle"] = decisions / n
	m["hpe.blocked_per_vehicle"] = blocked / n

	// The batched and oracle cursors alternate which runs first, so neither
	// always pays for the cache state the live phase leaves behind.
	var classUS, classN [3]float64
	var oracleUS, cellSteps, cellFrames float64
	for gi, g := range lp.ecfg.Groups {
		ar.SetSeed(engine.VehicleSeed(g.RootSeed, first))
		var batched, oracle []attack.Result
		runBatched := func() error {
			br := ar.NewBatchRun(lp.plans[gi])
			for br.Next() {
				class := cellSingle
				if br.WillRestore() {
					class = cellFork
				} else if br.Forked() {
					class = cellPrime
				}
				sp := tr.beginClass("attack.cell", cellClasses[class], root, it)
				r, err := br.Run()
				classUS[class] += us(tr.end(sp))
				if err != nil {
					return err
				}
				classN[class]++
				c := ar.Car()
				cellSteps += float64(c.Scheduler().Steps())
				cellFrames += float64(c.Bus().Stats().FramesDelivered)
				batched = append(batched, r)
			}
			return nil
		}
		runOracle := func() error {
			oc := ar.NewBatchRun(lp.plans[gi])
			for oc.Next() {
				sp := tr.begin("attack.oracle_cell", root, it)
				r, err := oc.RunOracle()
				oracleUS += us(tr.end(sp))
				if err != nil {
					return err
				}
				oracle = append(oracle, r)
			}
			return nil
		}
		runs := [2]func() error{runBatched, runOracle}
		if it%2 == 0 {
			runs[0], runs[1] = runs[1], runs[0]
		}
		for _, run := range runs {
			if err := run(); err != nil {
				return 0, 0, 0, err
			}
		}
		if !slices.Equal(batched, oracle) {
			return 0, 0, 0, fmt.Errorf("group %d: batched cell results differ from the oracle's", gi)
		}
	}
	// Per-class times of prime and fork cells stay in the trace (the span
	// class): a spec without shared prefixes has none, so only the classes
	// every spec has become metrics.
	cells := classN[cellSingle] + classN[cellPrime] + classN[cellFork]
	for c, name := range cellClasses {
		m["attack.cells."+name] = classN[c]
		cellsUS += classUS[c]
	}
	m["attack.cell_us.single"] = classUS[cellSingle] / classN[cellSingle]
	m["attack.cell_us.batched"] = cellsUS / cells
	m["attack.cell_us.oracle"] = oracleUS / cells
	m["sim.steps_per_cell"] = cellSteps / cells
	m["canbus.frames_per_cell"] = cellFrames / cells
	return arenaUS, cellsUS, liveUS, nil
}

// executedModel estimates a sweep's wall time in microseconds from the work
// it executes rather than replays: every engine worker builds an arena and
// executes its first vehicle's cells (later vehicles replay them from the
// worker's memo), and the live phase executes once per worker, or once per
// vehicle when bus errors make it seed-dependent. Work is spread over the
// workers, and sharded sweeps run shardPar children at a time.
func (w *workload) executedModel(arenaUS, cellsUS, liveUS float64) float64 {
	units, par := 1, 1
	if w.shards > 1 {
		units, par = w.shards, w.shardPar
	}
	perUnit := (w.fleet + units - 1) / units
	workers := min(w.workers, perUnit)
	lives := workers
	if w.errorRate > 0 {
		lives = perUnit
	}
	unitUS := (float64(workers)*(arenaUS+cellsUS) + float64(lives)*liveUS) / float64(workers)
	return float64(units) * unitUS / float64(par)
}

// engineLayers runs the sweep's whole-fleet engine config directly, timing
// the gaps between ordered vehicle emits, then re-folds its vehicles through
// the streaming merge. It returns the engine's fleet report.
func (b *bench) engineLayers(tr *tracer, lp *layerPlan, root, it int, m map[string]float64) (*engine.FleetReport, error) {
	ecfg := lp.ecfg
	emits := make([]time.Time, 1, b.w.fleet+1)
	ecfg.OnVehicle = func(*engine.VehicleReport) { emits = append(emits, time.Now()) }
	sp := tr.begin("engine.run", root, it)
	emits[0] = time.Now()
	fr, err := engine.Run(ecfg)
	m["engine.run_ms"] = ms(tr.end(sp))
	if err != nil {
		return nil, err
	}
	// Gaps count from the start of the run, so a one-vehicle fleet still
	// has one: the time to its only emit.
	gaps := make([]float64, 0, len(emits)-1)
	for i := 1; i < len(emits); i++ {
		gaps = append(gaps, float64(emits[i].Sub(emits[i-1]).Nanoseconds()))
	}
	m["engine.emit_gap_ns.p50"] = median(gaps)

	sp = tr.begin("engine.merge_fold", root, it)
	fold, err := engine.NewMergeFold(lp.ecfg)
	if err != nil {
		return nil, err
	}
	for i := range fr.Vehicles {
		fold.Add(fr.Vehicles[i])
	}
	merged := fold.Finish()
	m["engine.merge_fold_ms"] = ms(tr.end(sp))
	if !reflect.DeepEqual(merged.Groups, fr.Groups) {
		return nil, errors.New("streaming merge fold differs from the engine's merge")
	}
	return fr, nil
}

// wireLayers encodes up to wireSample of the vehicles onto the binary shard
// wire in memory and decodes them back, requiring the round trip to be
// exact: the positional wire layout must match the struct layout.
func wireLayers(tr *tracer, vehicles []engine.VehicleReport, root, it int, m map[string]float64) error {
	vs := vehicles[:min(len(vehicles), wireSample)]
	var buf bytes.Buffer
	sp := tr.begin("wire.encode", root, it)
	w := wire.NewWriter(&buf)
	for i := range vs {
		if err := w.WriteVehicle(&vs[i]); err != nil {
			return err
		}
	}
	if err := w.WriteTrailer(wire.Trailer{Count: len(vs)}); err != nil {
		return err
	}
	n := float64(len(vs))
	m["wire.encode_ns_per_vehicle"] = float64(tr.end(sp).Nanoseconds()) / n

	decoded := make([]*engine.VehicleReport, 0, len(vs))
	sp = tr.begin("wire.decode", root, it)
	r := wire.NewReader(&buf)
	for {
		v, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		decoded = append(decoded, v)
	}
	m["wire.decode_ns_per_vehicle"] = float64(tr.end(sp).Nanoseconds()) / n
	if len(decoded) != len(vs) {
		return fmt.Errorf("wire round trip: %d of %d vehicles", len(decoded), len(vs))
	}
	for i, v := range decoded {
		if !reflect.DeepEqual(*v, vs[i]) {
			return fmt.Errorf("wire round trip: vehicle %d differs", vs[i].Index)
		}
	}
	return nil
}

// spawnProbe runs one single-vehicle carsim shard child of the workload's
// spec through the shard driver, so unsharded workloads report the fixed
// per-shard cost: process start, the child's spec compile and harness
// build, and the first frame.
func (b *bench) spawnProbe(tr *tracer, lp *layerPlan, root, it int) error {
	one := lp.ecfg
	one.Fleet = 1
	fr, err := shard.Run(shard.Config{Engine: one, Shards: 1, Spawn: b.spawn(tr, root, it)})
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	if len(fr.Vehicles) != 1 {
		return fmt.Errorf("shard probe: %d vehicles, want 1", len(fr.Vehicles))
	}
	return nil
}

// shardLayers folds one traced sweep's shard children into its metrics.
func shardLayers(obs []childObs, m map[string]float64) {
	var spawn, first, child []float64
	var wait time.Duration
	var read int64
	var vehicles int
	for _, o := range obs {
		spawn = append(spawn, ms(o.spawn))
		first = append(first, ms(o.firstFrame))
		child = append(child, ms(o.child))
		wait += o.wait
		read += o.bytes
		vehicles += o.vehicles
	}
	m["shard.spawn_ms"] = median(spawn)
	m["shard.first_frame_ms"] = median(first)
	m["shard.child_ms"] = median(child)
	m["shard.parent_wait_ms"] = ms(wait)
	m["wire.bytes_per_vehicle"] = float64(read) / float64(vehicles)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
