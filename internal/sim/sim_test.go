package sim

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(30*time.Millisecond, func(time.Duration) { got = append(got, 3) })
	s.At(10*time.Millisecond, func(time.Duration) { got = append(got, 1) })
	s.At(20*time.Millisecond, func(time.Duration) { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func(time.Duration) { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of schedule order: %v", got)
		}
	}
}

func TestSchedulerAfterRelative(t *testing.T) {
	var s Scheduler
	var at time.Duration
	s.At(5*time.Millisecond, func(now time.Duration) {
		s.After(7*time.Millisecond, func(now time.Duration) { at = now })
	})
	s.Run()
	if at != 12*time.Millisecond {
		t.Errorf("After fired at %v, want 12ms", at)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(10*time.Millisecond, func(time.Duration) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(time.Millisecond, func(time.Duration) {})
}

func TestSchedulerNegativeAfterClamps(t *testing.T) {
	var s Scheduler
	ran := false
	s.After(-time.Second, func(time.Duration) { ran = true })
	s.Run()
	if !ran {
		t.Error("negative After delay should clamp to now and still run")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(10*time.Millisecond, func(time.Duration) { got = append(got, 1) })
	s.At(20*time.Millisecond, func(time.Duration) { got = append(got, 2) })
	s.At(30*time.Millisecond, func(time.Duration) { got = append(got, 3) })
	s.RunUntil(20 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("RunUntil ran %d events, want 2", len(got))
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("Now() = %v, want 20ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	// Deadline beyond all events advances the clock to the deadline.
	s.RunUntil(100 * time.Millisecond)
	if s.Now() != 100*time.Millisecond {
		t.Errorf("Now() = %v, want 100ms", s.Now())
	}
	if len(got) != 3 {
		t.Errorf("all events should have run, got %v", got)
	}
}

func TestSchedulerEventsScheduledDuringRun(t *testing.T) {
	var s Scheduler
	depth := 0
	var recurse func(now time.Duration)
	recurse = func(now time.Duration) {
		depth++
		if depth < 5 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(time.Millisecond, recurse)
	s.Run()
	if depth != 5 {
		t.Errorf("recursive scheduling depth = %d, want 5", depth)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("Now() = %v, want 5ms", s.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := seeded(42), seeded(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := seeded(43)
	same := true
	a = seeded(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := seeded(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := seeded(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := seeded(11)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.28 || got > 0.32 {
		t.Errorf("Bool(0.3) frequency = %v, want ~0.3", got)
	}
}

func TestSchedulerFreeListReusesItems(t *testing.T) {
	var s Scheduler
	// Warm the pool, then check steady-state scheduling does not allocate.
	for i := 0; i < 100; i++ {
		s.After(time.Microsecond, func(time.Duration) {})
		s.Run()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, func(time.Duration) {})
		s.Run()
	})
	if allocs > 0.1 {
		t.Errorf("steady-state schedule+run allocates %.1f objects/op, want 0", allocs)
	}
}
