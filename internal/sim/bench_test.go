package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedulerChurn measures the scheduler's hot loop — schedule,
// sift, pop, fire, recycle — on 32 events cycling through 7 instants, so
// most of them go to the heap. That queue is shallow: the live phase holds
// 250 or more pre-scheduled events, mostly in time order, which is
// BenchmarkSchedulerTrain's shape. Entries are pointer-free and slots
// recycle through the free list, so a warm scheduler must not allocate at
// all; b.ReportAllocs plus TestSchedulerSteadyStateZeroAllocs keep that at
// exactly zero.
func BenchmarkSchedulerChurn(b *testing.B) {
	var s Scheduler
	fn := func(time.Duration) {}
	// Warm the arena, free list and both queues with one pass of the
	// measured schedule (ascending events alone would fill only the lane).
	for j := 0; j < 32; j++ {
		s.After(time.Duration(j%7)*time.Microsecond, fn)
	}
	s.Run()
	s.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			s.After(time.Duration(j%7)*time.Microsecond, fn)
		}
		s.Run()
		s.Reset()
	}
}

// trainTick returns the event a pre-scheduled traffic tick runs in the live
// phase, reduced to its queue shape: each tick's frames arm the bus's
// zero-delay arbitration kick and a frame completion ~200 µs later.
func trainTick(s *Scheduler) Event {
	leaf := func(time.Duration) {}
	return func(time.Duration) {
		s.After(0, leaf)
		s.After(200*time.Microsecond, leaf)
	}
}

// scheduleTrain pre-schedules n ticks 1 ms apart, as car.StartTraffic does
// for the whole traffic horizon.
func scheduleTrain(s *Scheduler, n int, tick Event) {
	for i := 1; i <= n; i++ {
		s.After(time.Duration(i)*time.Millisecond, tick)
	}
}

// BenchmarkSchedulerTrain measures the queue shape the live phase really
// has: n pre-scheduled ticks plus, per tick, the bus's kick and completion
// events, which land between two queued ticks. The ticks sit in the lane and
// only the per-tick events in the heap, so ns per fired event stays flat in
// n; a heap holding the ticks too would cost O(log n) per pop.
func BenchmarkSchedulerTrain(b *testing.B) {
	for _, n := range []int{10, 250, 2500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var s Scheduler
			tick := trainTick(&s)
			scheduleTrain(&s, n, tick)
			s.Run()
			s.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scheduleTrain(&s, n, tick)
				s.Run()
				s.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3*n), "ns/event")
		})
	}
}

// TestSchedulerSteadyStateZeroAllocs pins the scheduler benchmarks'
// allocation discipline as a hard assertion: a warm scheduler's
// schedule→run→reset cycle performs zero allocations per op, both for
// out-of-order churn on the heap and for the live phase's train of
// pre-scheduled ticks through the lane.
func TestSchedulerSteadyStateZeroAllocs(t *testing.T) {
	fn := func(time.Duration) {}
	for _, tc := range []struct {
		name string
		// load returns one cycle's scheduling step, its closures built once.
		load func(s *Scheduler) func()
	}{
		{"churn", func(s *Scheduler) func() {
			return func() {
				for j := 0; j < 32; j++ {
					s.After(time.Duration(j%5)*time.Microsecond, fn)
				}
			}
		}},
		{"train", func(s *Scheduler) func() {
			tick := trainTick(s)
			return func() { scheduleTrain(s, 250, tick) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s Scheduler
			schedule := tc.load(&s)
			schedule()
			s.Run()
			s.Reset()
			allocs := testing.AllocsPerRun(200, func() {
				schedule()
				s.Run()
				s.Reset()
			})
			if allocs != 0 {
				t.Errorf("steady-state scheduler cycle allocates %.1f objects/op, want exactly 0", allocs)
			}
		})
	}
}
