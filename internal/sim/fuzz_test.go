package sim

import (
	"fmt"
	"testing"
	"time"
)

// refEntry is one pending event of the reference scheduler.
type refEntry struct {
	at  time.Duration
	seq uint64
	fn  Event
}

// refScheduler is the brute-force reference FuzzSchedulerOrder holds the
// Scheduler to: pending events in an unordered slice, each pop a linear
// scan for the minimum (time, sequence).
type refScheduler struct {
	now   time.Duration
	seq   uint64
	steps uint64
	q     []refEntry
}

func (r *refScheduler) at(at time.Duration, fn Event) {
	r.q = append(r.q, refEntry{at: at, seq: r.seq, fn: fn})
	r.seq++
}

// head returns the index of the earliest pending event, or -1.
func (r *refScheduler) head() int {
	best := -1
	for i, e := range r.q {
		if best < 0 || e.at < r.q[best].at || (e.at == r.q[best].at && e.seq < r.q[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refScheduler) step() bool {
	i := r.head()
	if i < 0 {
		return false
	}
	e := r.q[i]
	r.q[i] = r.q[len(r.q)-1]
	r.q = r.q[:len(r.q)-1]
	r.now = e.at
	r.steps++
	e.fn(r.now)
	return true
}

func (r *refScheduler) runUntil(deadline time.Duration) {
	for i := r.head(); i >= 0 && r.q[i].at <= deadline; i = r.head() {
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refScheduler) nextAt() (time.Duration, bool) {
	if i := r.head(); i >= 0 {
		return r.q[i].at, true
	}
	return 0, false
}

// fired is one event execution: the event's id and the instant it ran.
type fired struct {
	id int
	at time.Duration
}

// orderWorld runs one operation program on a Scheduler and on the reference
// side by side. Events are numbered in schedule order on each side, and a
// fired event may schedule children (kids of them, at 0 and 200 µs, each
// with kids-1 of its own), so a divergence in fire order also shows as a
// divergence in ids.
type orderWorld struct {
	s    Scheduler
	r    refScheduler
	sIDs int // events scheduled on the Scheduler
	rIDs int // events scheduled on the reference
	got  []fired
	want []fired
	snap *SchedulerSnapshot
}

// kidDelay is the delay of a fired event's j-th child: the bus's zero-delay
// arbitration kick and a frame completion ~200 µs later.
var kidDelay = [2]time.Duration{0, 200 * time.Microsecond}

func (w *orderWorld) schedule(at time.Duration, kids int) {
	w.s.At(at, w.sEvent(kids))
	w.r.at(at, w.rEvent(kids))
}

// sEvent numbers a new Scheduler event and returns its callback.
func (w *orderWorld) sEvent(kids int) Event {
	id := w.sIDs
	w.sIDs++
	return func(now time.Duration) {
		w.got = append(w.got, fired{id, now})
		for j := 0; j < kids; j++ {
			w.s.After(kidDelay[j], w.sEvent(kids-1))
		}
	}
}

// rEvent numbers a new reference event and returns its callback.
func (w *orderWorld) rEvent(kids int) Event {
	id := w.rIDs
	w.rIDs++
	return func(now time.Duration) {
		w.want = append(w.want, fired{id, now})
		for j := 0; j < kids; j++ {
			w.r.at(now+kidDelay[j], w.rEvent(kids-1))
		}
	}
}

// apply runs one two-byte operation on both sides.
func (w *orderWorld) apply(op, arg byte) string {
	delta := time.Duration(arg%8) * 50 * time.Microsecond // small: ties are common
	kids := int(arg>>3) % 3
	switch op % 7 {
	case 0:
		w.schedule(w.s.Now()+delta, kids)
		return fmt.Sprintf("At(now+%v, kids=%d)", delta, kids)
	case 1:
		// After clamps a negative delay to zero.
		d := delta - 100*time.Microsecond
		w.s.After(d, w.sEvent(kids))
		w.r.at(w.r.now+max(d, 0), w.rEvent(kids))
		return fmt.Sprintf("After(%v, kids=%d)", d, kids)
	case 2:
		deadline := w.s.Now() + delta*time.Duration(1+arg>>5)
		w.s.RunUntil(deadline)
		w.r.runUntil(deadline)
		return fmt.Sprintf("RunUntil(%v)", deadline)
	case 3:
		n := int(arg % 5)
		got, want := 0, 0
		for got < n && w.s.Step() {
			got++
		}
		for want < n && w.r.step() {
			want++
		}
		return fmt.Sprintf("Step x%d = %d, reference %d", n, got, want)
	case 4:
		w.s.Run()
		for w.r.step() {
		}
		return "Run"
	case 5:
		switch arg % 3 {
		case 0:
			w.s.Reset()
			w.r = refScheduler{}
			return "Reset"
		case 1:
			if !w.s.Quiescent() {
				return "Snapshot(skipped: not quiescent)"
			}
			snap := w.s.Snapshot()
			w.snap = &snap
			return fmt.Sprintf("Snapshot%+v", snap)
		default:
			if w.snap == nil {
				return "RestoreFrom(none)"
			}
			w.s.RestoreFrom(*w.snap)
			w.r = refScheduler{now: w.snap.Now, seq: w.snap.Seq, steps: w.snap.Steps}
			return fmt.Sprintf("RestoreFrom%+v", *w.snap)
		}
	default:
		// A train: 1-16 ticks pre-scheduled one period apart, each firing a
		// kick and a completion, as car.StartTraffic and attack injection
		// trains schedule them.
		n := 1 + int(arg%16)
		period := time.Duration(1+arg>>4%4) * 100 * time.Microsecond
		for i := 1; i <= n; i++ {
			w.schedule(w.s.Now()+time.Duration(i)*period, 2)
		}
		return fmt.Sprintf("Train(n=%d, period=%v)", n, period)
	}
}

// check compares every observable of the two sides.
func (w *orderWorld) check(t *testing.T, step int, op string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("after op %d %s: "+format, append([]any{step, op}, args...)...)
	}
	if len(w.got) != len(w.want) {
		fail("fired %d events, reference fired %d\ngot  %v\nwant %v", len(w.got), len(w.want), w.got, w.want)
	}
	for i := range w.got {
		if w.got[i] != w.want[i] {
			fail("fire %d is %+v, reference %+v", i, w.got[i], w.want[i])
		}
	}
	if w.s.Now() != w.r.now || w.s.Steps() != w.r.steps {
		fail("now=%v steps=%d, reference now=%v steps=%d", w.s.Now(), w.s.Steps(), w.r.now, w.r.steps)
	}
	if w.s.Pending() != len(w.r.q) || w.s.Quiescent() != (len(w.r.q) == 0) {
		fail("pending=%d quiescent=%v, reference pending=%d", w.s.Pending(), w.s.Quiescent(), len(w.r.q))
	}
	// Every slot is either queued or back on the free list: a queue that
	// drops an entry without recycling its slot leaks arena memory.
	if live := len(w.s.slots) - len(w.s.free); live != w.s.Pending() {
		fail("%d slots in use, %d events pending", live, w.s.Pending())
	}
	gotAt, gotOK := w.s.NextAt()
	wantAt, wantOK := w.r.nextAt()
	if gotAt != wantAt || gotOK != wantOK {
		fail("NextAt=(%v, %v), reference (%v, %v)", gotAt, gotOK, wantAt, wantOK)
	}
}

// FuzzSchedulerOrder decodes the input into a program of scheduler
// operations, two bytes each — At/After with small deltas, trains of
// pre-scheduled ticks, RunUntil, up to four Steps, Run, Reset, and
// Snapshot/RestoreFrom at quiescence — whose events schedule
// children at the current instant or later when they fire. It runs the
// program on a Scheduler and on refScheduler and requires, after every
// operation, the same fire order and the same Now, Steps, Pending,
// Quiescent and NextAt, with every slot not queued back on the free list.
func FuzzSchedulerOrder(f *testing.F) {
	// The live phase: a long train of ticks, each firing a kick and a
	// completion, run to a deadline and then drained.
	f.Add([]byte{6, 0x0f, 6, 0x1f, 2, 0xff, 0, 0x08, 2, 0x07, 4, 0})
	// Parallel injection trains: three trains from the same instant,
	// stepped part way and then drained.
	f.Add([]byte{6, 0x05, 6, 0x15, 6, 0x25, 3, 0x04, 3, 0x03, 4, 0})
	// Snapshot at quiescence, more work, restore, and a reset.
	f.Add([]byte{0, 0x11, 4, 0, 5, 0x01, 6, 0x03, 3, 0x02, 5, 0x02, 0, 0x00, 4, 0, 5, 0x00, 1, 0x01, 4, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		var w orderWorld
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op := w.apply(prog[pc], prog[pc+1])
			w.check(t, pc/2, op)
		}
		w.s.Run()
		for w.r.step() {
		}
		w.check(t, len(prog)/2, "final Run")
	})
}
