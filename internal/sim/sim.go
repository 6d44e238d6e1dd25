// Package sim provides a deterministic discrete-event simulation kernel used
// by the CAN bus substrate and the attack harness.
//
// A Scheduler owns a virtual clock and two queues of timed events: a sorted
// FIFO, the lane, for events scheduled in time order, and a 4-ary heap for
// the rest. Events fire in (time, schedule order) whichever queue holds
// them, so events scheduled for the same instant fire in the order they
// were scheduled, which keeps simulations fully deterministic: two runs
// with the same seed and the same schedule produce identical traces.
//
// Schedulers are built for reuse: event slots recycle through a free list,
// and Reset restores a dirty scheduler to its zero state without releasing
// memory, so long-lived simulation workers schedule without allocating.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual instant.
type Event func(now time.Duration)

// entry is one queued event: the ordering key plus the index of its slot in
// the scheduler's arena of callbacks. Slots are recycled through a free list
// once they fire or are discarded, so the hot path of a long simulation
// schedules without allocating.
// Entries carry no pointers, so sifting them up and down the heap moves plain
// words — no interface boxing, no method-table dispatch, and no GC write
// barriers on the simulation's single hottest path.
type entry struct {
	at   time.Duration
	seq  uint64 // tie-breaker: schedule order
	slot int32
}

// before reports firing order: earliest timestamp first, schedule order
// breaking ties.
func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is a discrete-event scheduler with a virtual clock.
// The zero value is ready to use.
//
// Most events arrive in time order: a simulation pre-schedules its periodic
// traffic and injection trains up front, each later than the last. Those go
// to the lane, a ring buffer kept sorted by construction, where scheduling
// and firing cost O(1). Only an event earlier than the lane's last entry —
// the bus's arbitration and completion events between two pre-scheduled
// ticks — goes to the heap, which therefore stays a few entries deep. Every
// pop takes the earlier of the two heads by (time, sequence), the same total
// order the heap alone kept.
type Scheduler struct {
	now      time.Duration
	seq      uint64
	heap     []entry // events scheduled out of time order
	lane     []entry // ring of in-order events; len is 0 or a power of two
	laneHead int     // ring index of the lane's earliest entry
	laneLen  int     // entries queued in the lane
	slots    []Event // arena indexed by entry.slot
	free     []int32 // recycled slot indices
	steps    uint64
}

// ErrPast is returned when an event is scheduled before the current virtual time.
var ErrPast = errors.New("sim: event scheduled in the past")

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Pending returns the number of events still queued.
func (s *Scheduler) Pending() int { return len(s.heap) + s.laneLen }

// NextAt returns the timestamp of the earliest queued event and whether the
// queue is non-empty. Callers use it to prove no further event can fire at
// the current instant — the bus's arbitration kick elides its zero-delay hop
// on that proof.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	e, _, ok := s.peek()
	return e.at, ok
}

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// alloc takes a slot index from the free list, or grows the arena when empty.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slots = append(s.slots, nil)
	return int32(len(s.slots) - 1)
}

// recycle returns a popped slot to the free list.
func (s *Scheduler) recycle(idx int32) {
	s.slots[idx] = nil
	s.free = append(s.free, idx)
}

// The out-of-order queue is a 4-ary heap: half the depth of a binary heap, so
// pops touch fewer cache lines, and the four children of a node sit in
// adjacent entries of one or two cache lines.
const heapArity = 4

// siftUp restores the heap property after appending at index i, walking the
// hole toward the root. Direct sifts on the concrete entry slice replace the
// container/heap detour this package originally took: no any-boxing on
// Push/Pop, no interface dispatch per comparison.
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown restores the heap property from index i toward the leaves.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		child := first
		for c := first + 1; c < last; c++ {
			if h[c].before(h[child]) {
				child = c
			}
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// pop removes and returns the heap's earliest entry. The caller guarantees
// the heap is non-empty.
func (s *Scheduler) pop() entry {
	h := s.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return e
}

// laneAt returns the lane entry i places after its head.
func (s *Scheduler) laneAt(i int) entry {
	return s.lane[(s.laneHead+i)&(len(s.lane)-1)]
}

// pushLane appends e to the lane, doubling the ring when it is full, so the
// ring never holds more than twice the lane's peak length.
func (s *Scheduler) pushLane(e entry) {
	if s.laneLen == len(s.lane) {
		grown := make([]entry, max(2*len(s.lane), 1))
		n := copy(grown, s.lane[s.laneHead:])
		copy(grown[n:], s.lane[:s.laneHead])
		s.lane, s.laneHead = grown, 0
	}
	s.lane[(s.laneHead+s.laneLen)&(len(s.lane)-1)] = e
	s.laneLen++
}

// peek returns the earliest queued entry and whether it heads the lane (as
// opposed to the heap); ok is false when both queues are empty.
func (s *Scheduler) peek() (e entry, inLane, ok bool) {
	if s.laneLen > 0 {
		e, inLane = s.lane[s.laneHead], true
		if len(s.heap) > 0 && s.heap[0].before(e) {
			e, inLane = s.heap[0], false
		}
		return e, inLane, true
	}
	if len(s.heap) > 0 {
		return s.heap[0], false, true
	}
	return entry{}, false, false
}

// drop removes the entry peek just returned.
func (s *Scheduler) drop(inLane bool) {
	if !inLane {
		s.pop()
		return
	}
	s.laneHead = (s.laneHead + 1) & (len(s.lane) - 1)
	s.laneLen--
}

// At schedules fn to run at absolute virtual time at.
// It panics with ErrPast if at precedes the current time.
func (s *Scheduler) At(at time.Duration, fn Event) {
	if at < s.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPast, at, s.now))
	}
	idx := s.alloc()
	s.slots[idx] = fn
	e := entry{at: at, seq: s.seq, slot: idx}
	s.seq++
	// seq only grows, so an event no earlier than the lane's last entry
	// keeps the lane sorted by (time, sequence).
	if s.laneLen == 0 || at >= s.laneAt(s.laneLen-1).at {
		s.pushLane(e)
	} else {
		s.heap = append(s.heap, e)
		s.siftUp(len(s.heap) - 1)
	}
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Step executes the single next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	e, inLane, ok := s.peek()
	if !ok {
		return false
	}
	s.drop(inLane)
	s.now = e.at
	s.steps++
	fn := s.slots[e.slot]
	s.recycle(e.slot)
	fn(s.now)
	return true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for {
		next, _, ok := s.peek()
		if !ok || next.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// SchedulerSnapshot captures a quiescent scheduler's counters: the virtual
// clock, the schedule-order sequence and the executed-step count. A
// quiescent scheduler (both queues empty) has no other state, so the
// snapshot is three words — no queue capture, no slot arena copy.
type SchedulerSnapshot struct {
	// Now is the captured virtual time.
	Now time.Duration
	// Seq is the captured schedule-order counter.
	Seq uint64
	// Steps is the captured executed-event count.
	Steps uint64
}

// Quiescent reports whether the scheduler is at a checkpointable instant:
// every queued event drained (Run returned). It is the cheap probe callers
// use to turn the Snapshot panic below into a recoverable error.
func (s *Scheduler) Quiescent() bool { return s.Pending() == 0 }

// Snapshot captures the scheduler's counters for a later RestoreFrom. The
// scheduler must be quiescent — every queued event drained (Run returned) —
// because a checkpoint taken mid-schedule would need the queues and slot
// arena too; it panics otherwise rather than silently dropping queued events.
func (s *Scheduler) Snapshot() SchedulerSnapshot {
	if !s.Quiescent() {
		panic("sim: Snapshot of a non-quiescent scheduler (events still queued)")
	}
	return SchedulerSnapshot{Now: s.now, Seq: s.seq, Steps: s.steps}
}

// RestoreFrom rewinds the scheduler to a state captured by Snapshot: any
// queued events are discarded (their slots recycled, exactly as Reset does)
// and the clock and counters are restored. A restored scheduler behaves
// byte-identically to one that replayed the original prefix — the
// checkpoint/restore contract the attack arena's prefix sharing relies on.
func (s *Scheduler) RestoreFrom(snap SchedulerSnapshot) {
	for _, e := range s.heap {
		s.recycle(e.slot)
	}
	s.heap = s.heap[:0]
	for i := 0; i < s.laneLen; i++ {
		s.recycle(s.laneAt(i).slot)
	}
	s.laneHead, s.laneLen = 0, 0
	s.now, s.seq, s.steps = snap.Now, snap.Seq, snap.Steps
}

// Reset restores the scheduler to its pristine zero state — virtual time 0,
// empty queue, zeroed step and sequence counters — without releasing memory:
// every queued slot is recycled into the free list, so a reset scheduler
// schedules without allocating.
func (s *Scheduler) Reset() {
	s.RestoreFrom(SchedulerSnapshot{})
}
