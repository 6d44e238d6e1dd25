package canbus

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// buildTopology constructs a small bus with two filtered stations and marks
// it pristine, returning the bus and a receive counter per node name.
func buildTopology(t *testing.T, seed uint64, errRate float64) (*sim.Scheduler, *Bus, map[string]*int) {
	t.Helper()
	sched := &sim.Scheduler{}
	bus := New(sched, Config{Seed: seed, ErrorRate: errRate})
	counts := map[string]*int{}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		n := bus.MustAttach(name)
		n.Controller().SetFilters(ExactFilter(0x100), ExactFilter(0x200))
		c := new(int)
		counts[name] = c
		n.Controller().SetHandler(func(Frame) { *c++ })
	}
	bus.MarkPristine()
	return sched, bus, counts
}

// exercise drives a deterministic workload and returns the final stats.
func exercise(t *testing.T, sched *sim.Scheduler, bus *Bus, counts map[string]*int) (BusStats, [3]int) {
	t.Helper()
	a, _ := bus.Node("alpha")
	b, _ := bus.Node("beta")
	for i := 0; i < 5; i++ {
		if err := a.Send(MustDataFrame(0x100, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(MustDataFrame(0x200, []byte{byte(i), 0xFF})); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	return bus.Stats(), [3]int{*counts["alpha"], *counts["beta"], *counts["gamma"]}
}

// TestBusResetEquivalence dirties a bus every way the attack harness does —
// extra node attached, a pristine node detached, compromised firmware,
// stripped filters, queued frames — then resets and checks the workload
// outcome matches a freshly built topology bit for bit.
func TestBusResetEquivalence(t *testing.T) {
	sched, bus, counts := buildTopology(t, 7, 0.1)

	// Dirty phase.
	rogue := bus.MustAttach("rogue")
	_ = rogue.Send(MustDataFrame(0x300, []byte{0xEE}))
	alpha, _ := bus.Node("alpha")
	alpha.Controller().CompromiseFilters()
	alpha.Controller().SetFilters()
	bus.Detach("gamma")
	bus.SetTracer(func(TraceEvent) {})
	_ = alpha.Send(MustDataFrame(0x100, []byte{1, 2, 3}))
	sched.Step() // leave work in flight
	sched.Step()
	sched.Reset()
	bus.Reset(Config{Seed: 7, ErrorRate: 0.1})
	for _, c := range counts {
		*c = 0
	}

	if _, ok := bus.Node("rogue"); ok {
		t.Fatal("reset kept the post-snapshot rogue node")
	}
	if _, ok := bus.Node("gamma"); !ok {
		t.Fatal("reset did not re-admit the detached pristine node")
	}
	if rogue.Send(MustDataFrame(0x300, nil)) == nil {
		t.Fatal("stale rogue handle can still transmit after reset")
	}

	gotStats, gotCounts := exercise(t, sched, bus, counts)

	fsched, fbus, fcounts := buildTopology(t, 7, 0.1)
	wantStats, wantCounts := exercise(t, fsched, fbus, fcounts)

	if gotStats != wantStats {
		t.Errorf("stats after reset %+v, fresh %+v", gotStats, wantStats)
	}
	if gotCounts != wantCounts {
		t.Errorf("handler counts after reset %v, fresh %v", gotCounts, wantCounts)
	}
	if sched.Steps() != fsched.Steps() {
		t.Errorf("scheduler steps %d, fresh %d", sched.Steps(), fsched.Steps())
	}
}

// TestBusResetRestoresNodeState checks per-node counters, error state and
// filter configuration all return to pristine values.
func TestBusResetRestoresNodeState(t *testing.T) {
	sched, bus, _ := buildTopology(t, 1, 0)
	n, _ := bus.Node("alpha")
	if err := n.Send(MustDataFrame(0x100, []byte{9})); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	n.Controller().CompromiseFilters()
	if n.Stats() == (NodeStats{}) {
		t.Fatal("workload left no node stats to clear")
	}

	sched.Reset()
	bus.Reset(Config{Seed: 1})

	if n.Stats() != (NodeStats{}) {
		t.Errorf("node stats not cleared: %+v", n.Stats())
	}
	if n.ctrl.compromised {
		t.Error("controller still compromised after reset")
	}
	if got := len(n.ctrl.filters); got != 2 {
		t.Errorf("filter bank has %d filters after reset, want 2", got)
	}
	if st := n.counters.State(); st != ErrorActive {
		t.Errorf("error state %v after reset", st)
	}
}

// TestBusResetAllocationFree checks the steady-state reset cycle does not
// allocate.
func TestBusResetAllocationFree(t *testing.T) {
	sched, bus, _ := buildTopology(t, 3, 0)
	payload := []byte{1, 2, 3, 4}
	cycle := func() {
		a, _ := bus.Node("alpha")
		for i := 0; i < 4; i++ {
			_ = a.Send(MustDataFrame(0x100, payload))
		}
		sched.Run()
		sched.Reset()
		bus.Reset(Config{Seed: 3})
	}
	cycle() // warm caches, scratch slices and the free list
	allocs := testing.AllocsPerRun(50, cycle)
	// MustDataFrame itself allocates the payload copy (4 sends per cycle);
	// everything else — queueing, arbitration, delivery, reset — must not.
	if allocs > 4 {
		t.Errorf("workload+reset cycle allocated %.1f objects per run, want <= 4", allocs)
	}
}

// TestKickDedupe checks that many same-instant sends still deliver all
// frames in arbitration order (the deduped rounds must not drop frames).
func TestKickDedupe(t *testing.T) {
	sched := &sim.Scheduler{}
	bus := New(sched, Config{})
	var order []uint32
	tx := bus.MustAttach("tx")
	lo := bus.MustAttach("lo")
	rx := bus.MustAttach("rx")
	rx.Controller().SetHandler(func(f Frame) { order = append(order, f.ID) })
	sched.After(time.Millisecond, func(time.Duration) {
		_ = tx.Send(MustDataFrame(0x300, nil))
		_ = lo.Send(MustDataFrame(0x100, nil)) // higher priority, queued later
		_ = tx.Send(MustDataFrame(0x200, nil))
	})
	sched.Run()
	// lo's 0x100 wins the shared arbitration round; tx then drains its own
	// queue in FIFO order (0x300 was queued before 0x200).
	want := []uint32{0x100, 0x300, 0x200}
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivered %v, want %v", order, want)
		}
	}
}

// TestResetKeepsMarkedHandler: Reset restores exactly MarkPristine's
// snapshot, so a handler installed before the mark still receives after a
// Reset, while one installed after it is gone.
func TestResetKeepsMarkedHandler(t *testing.T) {
	sched := &sim.Scheduler{}
	bus := New(sched, Config{})
	tx := bus.MustAttach("tx")
	marked := bus.MustAttach("marked")
	late := bus.MustAttach("late")
	var gotMarked, gotLate int
	marked.Controller().SetHandler(func(Frame) { gotMarked++ })
	bus.MarkPristine()
	late.Controller().SetHandler(func(Frame) { gotLate++ })

	sched.Reset()
	bus.Reset(Config{})
	if err := tx.Send(MustDataFrame(0x123, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if gotMarked != 1 || gotLate != 0 {
		t.Errorf("after Reset the marked handler got %d frames and the late one %d, want 1 and 0", gotMarked, gotLate)
	}
}

// TestQuiescentRequiresPristineTopology: a bus is Quiescent only with
// exactly its pristine nodes attached. With a pristine node detached and a
// rogue attached it has as many nodes as its pristine set, but a snapshot
// of it would restore a different bus, so Quiescent is false and Snapshot
// panics.
func TestQuiescentRequiresPristineTopology(t *testing.T) {
	for _, tc := range []struct {
		name          string
		detach, rogue bool
	}{
		{"swapped", true, true},
		{"detached", true, false},
		{"rogue", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, bus, _ := buildTopology(t, 1, 0)
			if tc.detach {
				bus.Detach("gamma")
			}
			if tc.rogue {
				bus.MustAttach("rogue")
			}
			if bus.Quiescent() {
				t.Fatal("Quiescent with a non-pristine topology")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Snapshot of a non-pristine topology did not panic")
					}
				}()
				var snap BusSnapshot
				bus.Snapshot(&snap)
			}()
			sched.Reset()
			bus.Reset(Config{Seed: 1})
			if !bus.Quiescent() {
				t.Error("not Quiescent after Reset")
			}
		})
	}
}
