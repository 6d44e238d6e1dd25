package sim

import (
	"testing"
	"time"
)

// TestSchedulerResetEquivalence drives a scheduler, resets it, and checks it
// then behaves exactly like a freshly constructed one for the same schedule.
func TestSchedulerResetEquivalence(t *testing.T) {
	drive := func(s *Scheduler) []time.Duration {
		var fired []time.Duration
		s.After(3*time.Millisecond, func(now time.Duration) { fired = append(fired, now) })
		s.After(time.Millisecond, func(now time.Duration) {
			fired = append(fired, now)
			s.After(time.Millisecond, func(now time.Duration) { fired = append(fired, now) })
		})
		s.Run()
		return fired
	}

	used := &Scheduler{}
	// Dirty the scheduler: pending events, advanced clock.
	used.After(time.Millisecond, func(time.Duration) {})
	used.After(5*time.Millisecond, func(time.Duration) { t.Error("event survived reset") })
	used.After(7*time.Millisecond, func(time.Duration) {})
	used.Step()
	used.Reset()

	if used.Now() != 0 || used.Pending() != 0 || used.Steps() != 0 {
		t.Fatalf("reset state: now=%v pending=%d steps=%d", used.Now(), used.Pending(), used.Steps())
	}
	fresh := &Scheduler{}
	got, want := drive(used), drive(fresh)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, fresh at %v", i, got[i], want[i])
		}
	}
	if used.Steps() != fresh.Steps() {
		t.Errorf("steps %d vs fresh %d", used.Steps(), fresh.Steps())
	}
}

// TestSchedulerResetAllocationFree checks that the schedule/reset cycle
// reuses the recycled items instead of allocating, whether Reset finds the
// events queued in the lane only (ascending times, nothing run) or in both
// queues (a train of pre-scheduled ticks stopped mid-run, with per-tick
// events in the heap).
func TestSchedulerResetAllocationFree(t *testing.T) {
	fn := Event(func(time.Duration) {})
	for _, tc := range []struct {
		name string
		// load returns one cycle's work before Reset, its closures built once.
		load func(s *Scheduler) func()
	}{
		{"ascending", func(s *Scheduler) func() {
			return func() {
				for i := 0; i < 64; i++ {
					s.After(time.Duration(i)*time.Microsecond, fn)
				}
			}
		}},
		{"train", func(s *Scheduler) func() {
			tick := trainTick(s)
			return func() {
				scheduleTrain(s, 64, tick)
				for i := 0; i < 100 && s.Step(); i++ {
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Scheduler{}
			cycle := tc.load(s)
			// Warm the free list and the queues' backing arrays.
			cycle()
			s.Reset()
			allocs := testing.AllocsPerRun(100, func() {
				cycle()
				s.Reset()
			})
			if allocs != 0 {
				t.Errorf("schedule/reset cycle allocated %.1f objects per run, want 0", allocs)
			}
			if s.Pending() != 0 || s.Now() != 0 || s.Steps() != 0 || len(s.free) != len(s.slots) {
				t.Errorf("reset state: pending=%d now=%v steps=%d, %d of %d slots free",
					s.Pending(), s.Now(), s.Steps(), len(s.free), len(s.slots))
			}
		})
	}
}

// TestSchedulerLaneBounded runs two interleaved self-rescheduling chains —
// the lane never empties, and every event lands in it — and checks the lane
// is recycled as a ring: its capacity stays within twice its peak length
// instead of growing with the number of events fired.
func TestSchedulerLaneBounded(t *testing.T) {
	var s Scheduler
	var chain func(time.Duration)
	chain = func(time.Duration) { s.After(2*time.Microsecond, chain) }
	s.At(0, chain)
	s.At(time.Microsecond, chain)
	peak := 0
	for i := 0; i < 200_000; i++ {
		peak = max(peak, s.laneLen)
		if !s.Step() {
			t.Fatal("chains drained")
		}
	}
	if len(s.heap) != 0 {
		t.Errorf("in-order chains put %d events on the heap", len(s.heap))
	}
	if c := cap(s.lane); c > 2*peak {
		t.Errorf("lane capacity %d after 200000 steps, peak lane length %d: want <= %d", c, peak, 2*peak)
	}
}

// TestRNGReseed checks Reseed restarts the exact stream of a fresh seeding.
func TestRNGReseed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF} {
		r := seeded(seed)
		want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
		r.Reseed(seed)
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Errorf("seed %#x draw %d: got %#x want %#x", seed, i, got, w)
			}
		}
	}
}

// seeded returns a generator whose stream starts from seed.
func seeded(seed uint64) *RNG {
	var r RNG
	r.Reseed(seed)
	return &r
}
