// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index):
//
//	T1  BenchmarkTableIDerivation          — Table I from scenario facts
//	F1  BenchmarkFig1Lifecycle             — Fig. 1 pipeline + response paths
//	F2  BenchmarkFig2BusBroadcast          — Fig. 2 topology under load
//	F3  BenchmarkFig3FrameCodec/NodePipeline — Fig. 3 node internals
//	F4  BenchmarkFig4HPEDecision           — Fig. 4 decision block
//	C1  BenchmarkClaimResponseCycle        — §V-A.3 policy-vs-redesign claim
//	C2  BenchmarkClaimEnforcementRobustness — §V-B.2 firmware-compromise claim
//	E3  BenchmarkFleetSweep                — fleet engine scaling {1,10,100,1000}
//	E4  BenchmarkCampaignSweep             — procedural campaign sweeps (lite + quickstart)
//	E5  BenchmarkRiskCalibrate             — threat-model → sweep → calibrated DREAD profile
//	E7  BenchmarkShardedSweep              — sharded quickstart sweep (byte-identical merge)
//	E7x BenchmarkShardedSweepExec          — subprocess fan-out per parallelism level
//	E8  BenchmarkShardWireEncode/Decode    — binary shard wire codec
//
// plus the DESIGN.md §5 ablations (HPE lookup structure, AVC cache).
// Domain metrics are attached via b.ReportMetric so `go test -bench` prints
// the series the paper's artifacts correspond to.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/behaviour"
	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hpe"
	"repro/internal/lifecycle"
	"repro/internal/mac"
	"repro/internal/policy"
	"repro/internal/policy/ir"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/shard"
	"repro/internal/shard/wire"
	"repro/internal/sim"
	"repro/internal/threatmodel"
)

// BenchmarkTableIDerivation (T1) regenerates Table I: the full pipeline from
// scenario encodings to rated analysis plus the rendered table.
func BenchmarkTableIDerivation(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		a, err := car.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		out := report.TableI(a, car.TableRowOrder)
		if len(out) == 0 {
			b.Fatal("empty table")
		}
		rows = len(a.Threats)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFig1Lifecycle (F1) regenerates the Fig. 1 pipeline and both
// post-deployment response paths.
func BenchmarkFig1Lifecycle(b *testing.B) {
	m := lifecycle.DefaultCostModel()
	var speedup float64
	for i := 0; i < b.N; i++ {
		if steps := lifecycle.Pipeline(); len(steps) == 0 {
			b.Fatal("empty pipeline")
		}
		c, err := lifecycle.Compare(m)
		if err != nil {
			b.Fatal(err)
		}
		speedup = c.Speedup
	}
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkFig2BusBroadcast (F2) drives the Fig. 2 topology with periodic
// legitimate traffic and reports simulated frame throughput.
func BenchmarkFig2BusBroadcast(b *testing.B) {
	var delivered uint64
	for i := 0; i < b.N; i++ {
		c := car.MustNew(car.Config{})
		c.StartTraffic(time.Millisecond, 100*time.Millisecond, 88)
		c.Scheduler().Run()
		delivered = c.Bus().Stats().FramesDelivered
	}
	b.ReportMetric(float64(delivered), "frames/run")
}

// BenchmarkFig3FrameCodec (F3) measures the bit-level encode/decode path of
// a CAN node's controller.
func BenchmarkFig3FrameCodec(b *testing.B) {
	f := canbus.MustDataFrame(0x2A5, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bits, err := canbus.EncodeBits(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := canbus.DecodeBits(bits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3NodePipeline (F3) measures the full transceiver ->
// controller -> processor path across the simulated bus.
func BenchmarkFig3NodePipeline(b *testing.B) {
	sched := &sim.Scheduler{}
	bus := canbus.New(sched, canbus.Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	rx.Controller().SetFilters(canbus.ExactFilter(0x123))
	n := 0
	rx.Controller().SetHandler(func(canbus.Frame) { n++ })
	f := canbus.MustDataFrame(0x123, []byte{1, 2, 3, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(f); err != nil {
			b.Fatal(err)
		}
		sched.Run()
	}
	if n != b.N {
		b.Fatalf("delivered %d of %d", n, b.N)
	}
}

// BenchmarkFig4HPEDecision (F4) measures the decision block with the
// compiled Table I policy installed, and reports the modelled hardware
// latency alongside the simulation cost.
func BenchmarkFig4HPEDecision(b *testing.B) {
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	eng := hpe.New(car.NodeEVECU, hpe.FixedMode(car.ModeNormal))
	if err := eng.Install(h.Compiled); err != nil {
		b.Fatal(err)
	}
	granted := canbus.MustDataFrame(car.IDSensorSpeed, nil)
	blocked := canbus.MustDataFrame(0x6FF, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Decide(canbus.Read, granted) != canbus.Grant {
			b.Fatal("grant path broken")
		}
		if eng.Decide(canbus.Read, blocked) != canbus.Block {
			b.Fatal("block path broken")
		}
	}
	b.StopTimer()
	b.ReportMetric(hpe.LatencyNanos(hpe.CyclesPerDecision), "hw_ns/decision")
}

// BenchmarkClaimResponseCycle (C1) evaluates the §V-A.3 claim across a
// recall-duration sweep and reports the minimum observed speed-up.
func BenchmarkClaimResponseCycle(b *testing.B) {
	minSpeedup := 0.0
	for i := 0; i < b.N; i++ {
		minSpeedup = 1e18
		for _, days := range []float64{15, 30, 60, 90, 180} {
			m := lifecycle.DefaultCostModel()
			m.RecallOrUpdate = time.Duration(days * float64(lifecycle.Day))
			c, err := lifecycle.Compare(m)
			if err != nil {
				b.Fatal(err)
			}
			if c.Speedup < minSpeedup {
				minSpeedup = c.Speedup
			}
		}
	}
	b.ReportMetric(minSpeedup, "min_speedup_x")
}

// BenchmarkClaimEnforcementRobustness (C2) runs the full 16-scenario attack
// matrix under the HPE with compromised firmware and reports the block rate.
func BenchmarkClaimEnforcementRobustness(b *testing.B) {
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	scenarios := attack.Scenarios()
	var blockRate float64
	for i := 0; i < b.N; i++ {
		blockedCount := 0
		for _, sc := range scenarios {
			r, err := h.Run(sc, attack.EnforceHPE)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Succeeded && r.LegitimateOK {
				blockedCount++
			}
		}
		blockRate = float64(blockedCount) / float64(len(scenarios))
	}
	b.ReportMetric(blockRate*100, "blocked_%")
}

// BenchmarkAttackMatrixBaseline complements C2: the same matrix with no
// enforcement, reporting the success rate (expected 100%).
func BenchmarkAttackMatrixBaseline(b *testing.B) {
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	scenarios := attack.Scenarios()
	var successRate float64
	for i := 0; i < b.N; i++ {
		n := 0
		for _, sc := range scenarios {
			r, err := h.Run(sc, attack.EnforceNone)
			if err != nil {
				b.Fatal(err)
			}
			if r.Succeeded {
				n++
			}
		}
		successRate = float64(n) / float64(len(scenarios))
	}
	b.ReportMetric(successRate*100, "succeeded_%")
}

// benchLookup builds an engine whose tables use the given lookup structure
// and table size, then measures decisions (DESIGN.md §5 ablation).
func benchLookup(b *testing.B, kind policy.LookupKind, size uint32) {
	set := &policy.Set{Name: "ablation", Version: 1, Rules: []policy.Rule{
		{Subject: "n", Effect: policy.Allow, Action: policy.ActRead, IDs: policy.Span(0, size-1)},
	}}
	compiled, err := policy.Compile(set, policy.CompileOptions{
		Subjects: []string{"n"}, Modes: []policy.Mode{"m"}, Lookup: kind,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := hpe.New("n", hpe.FixedMode("m"))
	if err := eng.Install(compiled); err != nil {
		b.Fatal(err)
	}
	hit := canbus.MustDataFrame(size-1, nil) // worst case for linear scan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Decide(canbus.Read, hit) != canbus.Grant {
			b.Fatal("lookup broken")
		}
	}
}

func BenchmarkAblationHPELookup(b *testing.B) {
	for _, kind := range []policy.LookupKind{policy.LookupBitmap, policy.LookupHash, policy.LookupSorted, policy.LookupLinear} {
		for _, size := range []uint32{16, 256, 2048} {
			b.Run(fmt.Sprintf("%s/%d", kind, size), func(b *testing.B) {
				benchLookup(b, kind, size)
			})
		}
	}
}

// BenchmarkHPELookup is the backend ablation (DESIGN.md §12): the same
// allow-range policy compiled through every registered enforcement backend,
// measured on the engine's Decide hot path with the worst-case identifier.
// Every backend installs its approved lists into the same engine table, so
// the rows differ only in the lookup behind each list.
func BenchmarkHPELookup(b *testing.B) {
	for _, backend := range ir.Names() {
		for _, size := range []uint32{16, 256, 2048} {
			b.Run(fmt.Sprintf("backend=%s/%d", backend, size), func(b *testing.B) {
				set := &policy.Set{Name: "ablation", Version: 1, Rules: []policy.Rule{
					{Subject: "n", Effect: policy.Allow, Action: policy.ActRead, IDs: policy.Span(0, size-1)},
				}}
				enf, err := ir.Build(set, policy.CompileOptions{
					Subjects: []string{"n"}, Modes: []policy.Mode{"m"}, Backend: backend,
				})
				if err != nil {
					b.Fatal(err)
				}
				eng := hpe.New("n", hpe.FixedMode("m"))
				if err := eng.InstallEnforcer(enf); err != nil {
					b.Fatal(err)
				}
				hit := canbus.MustDataFrame(size-1, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if eng.Decide(canbus.Read, hit) != canbus.Grant {
						b.Fatal("lookup broken")
					}
				}
			})
		}
	}
}

// BenchmarkAblationAVCCache measures MAC checks with and without the
// access-vector cache (DESIGN.md §5 ablation).
func BenchmarkAblationAVCCache(b *testing.B) {
	model, err := core.BuildModel(car.UseCase(), car.Threats(), "table-i", 1)
	if err != nil {
		b.Fatal(err)
	}
	module, err := core.DeriveMACModule(model.Analysis, "car-base", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, enabled := range []bool{true, false} {
		name := "on"
		if !enabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			srv := mac.NewServer(mac.WithAVC(enabled))
			if err := srv.Load(module); err != nil {
				b.Fatal(err)
			}
			src := core.MACContext(car.NodeTelematics)
			tgt := core.MessageContext(car.IDTrackingReport)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !srv.Check(src, tgt, core.MACClassCAN, core.MACPermWrite).Allowed {
					b.Fatal("check broken")
				}
			}
		})
	}
}

// BenchmarkPolicyToolchain measures the OEM-side path: derive, render,
// parse, compile, sign, verify — the work inside one policy update cycle.
func BenchmarkPolicyToolchain(b *testing.B) {
	analysis, err := car.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	oem, err := core.NewOEM(benchEntropy{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := threatmodel.DerivePolicies(analysis, "table-i", uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		bundle, err := oem.Issue(set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bundle.Verify(oem.PublicKey()); err != nil {
			b.Fatal(err)
		}
		if _, err := policy.Compile(set, policy.CompileOptions{
			Subjects: car.AllNodes, Modes: car.AllModes,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEntropy is a deterministic reader for benchmark key generation.
type benchEntropy struct{}

func (benchEntropy) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i*13 + 7)
	}
	return len(p), nil
}

// BenchmarkCriticalityLatency (E1) measures safety-critical delivery
// latency under a high-priority flood, without and with enforcement — the
// paper's "systems with differing criticality" future-work axis.
func BenchmarkCriticalityLatency(b *testing.B) {
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  attack.LatencyConfig
	}{
		{"quiet", attack.LatencyConfig{Enforce: attack.EnforceNone}},
		{"flood-none", attack.LatencyConfig{Enforce: attack.EnforceNone, Flood: true}},
		{"flood-hpe", attack.LatencyConfig{Enforce: attack.EnforceHPE, Flood: true}},
	}
	for _, cs := range cases {
		cs := cs
		b.Run(cs.name, func(b *testing.B) {
			var criticalMean time.Duration
			for i := 0; i < b.N; i++ {
				stats, err := h.MeasureLatency(cs.cfg)
				if err != nil {
					b.Fatal(err)
				}
				criticalMean = stats[0].Mean
			}
			b.ReportMetric(float64(criticalMean.Microseconds()), "critical_us")
		})
	}
}

// BenchmarkAblationBehaviouralOverhead (E2) measures the per-decision cost
// the situational layer adds on top of the identifier engine.
func BenchmarkAblationBehaviouralOverhead(b *testing.B) {
	h, err := attack.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	base := hpe.New(car.NodeDoorLocks, hpe.FixedMode(car.ModeNormal))
	if err := base.Install(h.Compiled); err != nil {
		b.Fatal(err)
	}
	f := canbus.MustDataFrame(car.IDDoorCommand, []byte{0x01})

	b.Run("hpe-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if base.Decide(canbus.Read, f) != canbus.Grant {
				b.Fatal("grant path broken")
			}
		}
	})
	b.Run("hpe+situational", func(b *testing.B) {
		wrapped := behaviour.New(base, func() time.Duration { return 0 })
		err := wrapped.AddRule(&behaviour.SituationalDeny{
			Label:     "no-unlock-in-motion",
			When:      behaviour.SituationFunc{Name: "in motion", Fn: func() bool { return false }},
			Direction: canbus.Read,
			IDs:       policy.SingleID(car.IDDoorCommand),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if wrapped.Decide(canbus.Read, f) != canbus.Grant {
				b.Fatal("grant path broken")
			}
		}
	})
	b.Run("hpe+rate", func(b *testing.B) {
		// The clock advances a full window per decision so the rule's
		// sliding window stays small and every frame is granted.
		var now time.Duration
		clock := func() time.Duration { now += 2 * time.Millisecond; return now }
		wrapped := behaviour.New(base, clock)
		err := wrapped.AddRule(&behaviour.RateLimit{
			Label:        "budget",
			Direction:    canbus.Read,
			IDs:          policy.SingleID(car.IDDoorCommand),
			MaxPerWindow: 4,
			Window:       time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if wrapped.Decide(canbus.Read, f) != canbus.Grant {
				b.Fatal("grant path broken")
			}
		}
	})
}

// BenchmarkFleetSweep (E3) scales the fleet engine across population sizes:
// every vehicle runs its own scheduler/bus/car/HPE stack plus a reduced
// Table I matrix, on a bounded worker pool with pooled per-worker arenas
// (the engine default). The metric is wall-clock vehicles per second, the
// fleet engine's throughput unit; BENCH_1.json snapshots it and CI gates
// regressions via cmd/benchgate.
func BenchmarkFleetSweep(b *testing.B) {
	scenarios := attack.Scenarios()[:3]
	for _, fleetSize := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("fleet=%d", fleetSize), func(b *testing.B) {
			var fr *engine.FleetReport
			for i := 0; i < b.N; i++ {
				var err error
				fr, err = engine.Run(engine.Config{
					Fleet: fleetSize,
					Groups: []engine.ScenarioGroup{{
						Scenarios: scenarios,
						Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
						RootSeed:  42,
					}},
					TrafficHorizon: 10 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if fr.Attacks[1].Summary.BlockRate() != 1.0 {
					b.Fatal("fleet sweep lost the HPE block-rate invariant")
				}
			}
			b.ReportMetric(float64(fleetSize)*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
			b.ReportMetric(fr.MeanUtilisation*100, "bus_util_%")
		})
	}
}

// loadCampaign parses and compiles a shipped campaign spec.
func loadCampaign(b *testing.B, path string) *campaign.Plan {
	b.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := campaign.Parse(string(raw))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkCampaignSweep (E4/E6) sweeps the shipped campaign specs across a
// simulated fleet on the vehicle-major pooled engine. The lite spec matches
// BenchmarkFleetSweep's per-vehicle workload (3 scenarios × 2 regimes) and
// measures raw campaign throughput at fleet=1000; the quickstart spec
// expands to 210 distinct scenarios (258 cells) per vehicle, so its
// vehicles/s is lower by construction and cells/s is the comparable unit.
// quickstart/fleet=1000 is the headline BENCH_4 gate: the whole campaign,
// fleet-scale, one pass over the vehicles.
func BenchmarkCampaignSweep(b *testing.B) {
	cases := []struct {
		name    string
		path    string
		fleet   int
		backend string
	}{
		{"lite/fleet=1000", "examples/campaigns/lite.campaign", 1000, ""},
		{"quickstart/fleet=100", "examples/campaigns/quickstart.campaign", 100, ""},
		{"quickstart/fleet=1000", "examples/campaigns/quickstart.campaign", 1000, ""},
		// Backend ablation at campaign scale: decision-equivalent reports,
		// so only throughput may move between these rows.
		{"quickstart/fleet=100/backend=table", "examples/campaigns/quickstart.campaign", 100, "table"},
		{"quickstart/fleet=100/backend=expr", "examples/campaigns/quickstart.campaign", 100, "expr"},
		{"quickstart/fleet=100/backend=closure", "examples/campaigns/quickstart.campaign", 100, "closure"},
	}
	for _, tc := range cases {
		plan := loadCampaign(b, tc.path)
		b.Run(tc.name, func(b *testing.B) {
			var rep *campaign.CampaignReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = campaign.Sweep(plan, campaign.SweepConfig{
					Fleet:         tc.fleet,
					RootSeed:      42,
					PolicyBackend: tc.backend,
				})
				if err != nil {
					b.Fatal(err)
				}
				// The first family is always the Table I reference block;
				// under the HPE it must block every run.
				if rep.Families[0].Regimes[len(rep.Families[0].Regimes)-1].Summary.BlockRate() != 1.0 {
					b.Fatal("campaign sweep lost the HPE block-rate invariant")
				}
			}
			b.ReportMetric(float64(tc.fleet)*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
			b.ReportMetric(float64(rep.Cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(float64(rep.ScenariosPerVehicle), "scenarios/vehicle")
		})
	}
}

// BenchmarkShardedSweep (E7) sweeps the quickstart campaign through the
// internal/shard partition-and-merge layer: the fleet index space split into
// contiguous ranges, each range an independent engine run, the merged report
// byte-identical to the unsharded sweep (global-index seeding keeps every
// trajectory pinned; each range folds on its own and the folds combine
// exactly).
// shards=1 exercises the partition/merge machinery on a single range, so the
// delta versus BenchmarkCampaignSweep/quickstart/fleet=1000 is the layer's
// overhead; shards=4 measures the per-range fan-out. BENCH_7.json gates
// shards=4 — the row behind the million-vehicle quickstart path.
func BenchmarkShardedSweep(b *testing.B) {
	plan := loadCampaign(b, "examples/campaigns/quickstart.campaign")
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("quickstart/fleet=1000/shards=%d", shards), func(b *testing.B) {
			var rep *campaign.CampaignReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = campaign.Sweep(plan, campaign.SweepConfig{
					Fleet:    1000,
					RootSeed: 42,
					Shards:   shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Families[0].Regimes[len(rep.Families[0].Regimes)-1].Summary.BlockRate() != 1.0 {
					b.Fatal("sharded sweep lost the HPE block-rate invariant")
				}
			}
			b.ReportMetric(float64(1000)*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
			b.ReportMetric(float64(rep.Cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// wireBenchVehicles sweeps the quickstart campaign's engine configuration
// over a small fleet and returns the vehicle reports — the payload corpus
// the wire-codec benchmarks encode.
func wireBenchVehicles(b *testing.B, fleet int) []engine.VehicleReport {
	b.Helper()
	plan := loadCampaign(b, "examples/campaigns/quickstart.campaign")
	ecfg, err := campaign.EngineConfig(plan, campaign.SweepConfig{Fleet: fleet, RootSeed: 42})
	if err != nil {
		b.Fatal(err)
	}
	fr, err := engine.Run(ecfg)
	if err != nil {
		b.Fatal(err)
	}
	return fr.Vehicles
}

// BenchmarkShardWireEncode (E8) measures shard transport encoding: one full
// shard stream (header + per-vehicle frames + trailer) on the binary wire.
// bytes/vehicle is the wire-size series BENCH_8.json snapshots.
func BenchmarkShardWireEncode(b *testing.B) {
	vs := wireBenchVehicles(b, 64)
	b.Run("wire=binary", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			w := wire.NewWriter(&buf)
			for j := range vs {
				if err := w.WriteVehicle(&vs[j]); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.WriteTrailer(wire.Trailer{Start: 0, Count: len(vs)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len())/float64(len(vs)), "bytes/vehicle")
		b.ReportMetric(float64(len(vs))*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
	})
}

// BenchmarkShardWireDecode (E8) is the parent's side of the transport: drain
// one encoded shard stream back into vehicle reports.
func BenchmarkShardWireDecode(b *testing.B) {
	vs := wireBenchVehicles(b, 64)
	b.Run("wire=binary", func(b *testing.B) {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for j := range vs {
			if err := w.WriteVehicle(&vs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.WriteTrailer(wire.Trailer{Start: 0, Count: len(vs)}); err != nil {
			b.Fatal(err)
		}
		stream := buf.Bytes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := wire.NewReader(bytes.NewReader(stream))
			n := 0
			for {
				v, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if v.Index != n {
					b.Fatal("decode order broken")
				}
				n++
			}
			if n != len(vs) {
				b.Fatalf("decoded %d of %d vehicles", n, len(vs))
			}
		}
		b.ReportMetric(float64(len(stream))/float64(len(vs)), "bytes/vehicle")
		b.ReportMetric(float64(len(vs))*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
	})
}

// benchShardSpawn mirrors carsim's subprocess spawn hook for the exec
// benchmark: re-invoke the built binary with -shard-range and decode its
// binary wire stream from stdout frame by frame.
func benchShardSpawn(bin string, fleet int) shard.Spawn {
	return func(r shard.Range) (shard.Stream, error) {
		cmd := exec.Command(bin,
			"-shard-range", r.String(),
			"-fleet", strconv.Itoa(fleet),
			"-seed", "42",
			"-campaign", "examples/campaigns/quickstart.campaign",
		)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("subprocess shard %s: %w", r, err)
		}
		return shard.NewWireStream(pipe, func() error {
			pipe.Close()
			if err := cmd.Wait(); err != nil {
				return fmt.Errorf("subprocess shard %s: %w", r, err)
			}
			return nil
		}), nil
	}
}

// BenchmarkShardedSweepExec (E7) measures the out-of-process fan-out: the
// quickstart sweep partitioned across real carsim subprocesses, per
// parallelism level. Every row streams binary wire frames through the
// varint codec; parallel=4 overlaps the four children under the bounded
// fan-out. A separate top-level benchmark (not a ShardedSweep
// sub-case) so CI can gate the in-process rows at high -benchtime without
// paying subprocess spawn costs there.
func BenchmarkShardedSweepExec(b *testing.B) {
	bin := filepath.Join(b.TempDir(), "carsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/carsim").CombinedOutput(); err != nil {
		b.Fatalf("go build ./cmd/carsim: %v\n%s", err, out)
	}
	plan := loadCampaign(b, "examples/campaigns/quickstart.campaign")
	const fleet = 1000
	for _, parallel := range []int{1, 4} {
		name := fmt.Sprintf("quickstart/fleet=%d/shards=4/wire=binary/parallel=%d", fleet, parallel)
		b.Run(name, func(b *testing.B) {
			var rep *campaign.CampaignReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = campaign.Sweep(plan, campaign.SweepConfig{
					Fleet:            fleet,
					RootSeed:         42,
					Shards:           4,
					SpawnShard:       benchShardSpawn(bin, fleet),
					ShardParallelism: parallel,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Families[0].Regimes[len(rep.Families[0].Regimes)-1].Summary.BlockRate() != 1.0 {
					b.Fatal("exec sharded sweep lost the HPE block-rate invariant")
				}
			}
			b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
			b.ReportMetric(float64(rep.Cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkRiskCalibrate (E5) measures the measurement half of the risk
// pipeline at fleet scale: sweep a synthesized campaign and calibrate the
// rubric DREAD scores against it. The INFO-2 slice synthesizes one
// payload-mutation family (3 scenarios × 2 regimes = 6 cells per vehicle) —
// the same lite-sized per-vehicle workload as BenchmarkCampaignSweep/lite —
// so vehicles/s is directly comparable and BENCH_3.json gates it (the
// acceptance floor is 15k vehicles/s).
func BenchmarkRiskCalibrate(b *testing.B) {
	out, err := risk.Compile(&risk.Spec{
		Model:   "connected-car",
		Seed:    42,
		Threats: []string{car.ThreatInfoStatusMod},
	})
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 1000
	var prof *risk.Profile
	var cells int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Sweep(out.Plan, campaign.SweepConfig{Fleet: fleet, RootSeed: 42})
		if err != nil {
			b.Fatal(err)
		}
		prof, err = risk.Calibrate(out.Analysis, rep)
		if err != nil {
			b.Fatal(err)
		}
		if len(prof.Threats) != 1 || len(prof.Threats[0].Families) == 0 {
			b.Fatal("calibration lost the synthesized family evidence")
		}
		cells = rep.Cells
	}
	b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "vehicles/s")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(prof.Threats[0].Residual, "residual_risk")
}

// BenchmarkCampaignCompile measures the OEM-side spec path: parse the
// quickstart DSL and expand it to its 210-scenario plan.
func BenchmarkCampaignCompile(b *testing.B) {
	raw, err := os.ReadFile("examples/campaigns/quickstart.campaign")
	if err != nil {
		b.Fatal(err)
	}
	src := string(raw)
	b.ReportAllocs()
	b.ResetTimer()
	var scenarios int
	for i := 0; i < b.N; i++ {
		spec, err := campaign.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := (campaign.Compiler{}).Compile(spec)
		if err != nil {
			b.Fatal(err)
		}
		scenarios = plan.ScenariosPerVehicle()
	}
	b.ReportMetric(float64(scenarios), "scenarios")
}

// BenchmarkBusUnderErrorInjection exercises retransmission economics: the
// same workload at increasing bus error rates.
func BenchmarkBusUnderErrorInjection(b *testing.B) {
	for _, rate := range []float64{0, 0.05, 0.15} {
		b.Run(fmt.Sprintf("err=%.2f", rate), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				sched := &sim.Scheduler{}
				bus := canbus.New(sched, canbus.Config{ErrorRate: rate, Seed: 42})
				tx := bus.MustAttach("tx")
				bus.MustAttach("rx")
				f := canbus.MustDataFrame(0x123, []byte{1, 2, 3, 4})
				for j := 0; j < 200; j++ {
					if err := tx.Send(f); err != nil {
						b.Fatal(err)
					}
				}
				sched.Run()
				util = bus.Utilisation()
			}
			b.ReportMetric(util*100, "bus_util_%")
		})
	}
}
