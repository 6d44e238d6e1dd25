package canbus

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// BitRate is the classical high-speed CAN bit rate of the connected-car
// case study, in bits per second; every bus runs at it.
const BitRate = 500_000

// bitTime is the duration of one bit at BitRate.
const bitTime = time.Second / BitRate

// errorFrameBits approximates the bus time consumed by an error frame plus
// error delimiter and interframe space.
const errorFrameBits = 20

// TraceEventKind tags entries emitted through Bus.SetTracer.
type TraceEventKind uint8

// Trace event kinds.
const (
	// TraceTxStart marks the beginning of a frame transmission.
	TraceTxStart TraceEventKind = iota + 1
	// TraceDelivered marks a successful broadcast completion.
	TraceDelivered
	// TraceError marks an injected transmission error.
	TraceError
	// TraceWriteBlocked marks a frame stopped by an outbound inline filter.
	TraceWriteBlocked
	// TraceReadBlocked marks a frame stopped by an inbound inline filter.
	TraceReadBlocked
	// TraceBusOff marks a node entering bus-off.
	TraceBusOff
	// TraceTxAborted marks a transmission abandoned because the transmitter
	// was detached mid-frame.
	TraceTxAborted
)

// String returns the event kind name.
func (k TraceEventKind) String() string {
	switch k {
	case TraceTxStart:
		return "tx-start"
	case TraceDelivered:
		return "delivered"
	case TraceError:
		return "error"
	case TraceWriteBlocked:
		return "write-blocked"
	case TraceReadBlocked:
		return "read-blocked"
	case TraceBusOff:
		return "bus-off"
	case TraceTxAborted:
		return "tx-aborted"
	default:
		return "invalid"
	}
}

// TraceEvent is one bus-level occurrence, reported to the tracer callback.
type TraceEvent struct {
	At    time.Duration
	Kind  TraceEventKind
	Node  string
	Frame Frame
}

// String renders the event in one line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%12v %-13s %-12s %s", e.At, e.Kind, e.Node, e.Frame)
}

// BusStats aggregates bus-level counters.
type BusStats struct {
	// FramesDelivered counts successful broadcasts.
	FramesDelivered uint64
	// Errors counts injected transmission errors.
	Errors uint64
	// WriteBlocked counts outbound filter blocks across all nodes.
	WriteBlocked uint64
	// ReadBlocked counts inbound filter blocks across all nodes.
	ReadBlocked uint64
	// AbortedTx counts transmissions abandoned by a mid-frame detach.
	AbortedTx uint64
	// BusyTime is the cumulative virtual time the bus carried bits.
	BusyTime time.Duration
}

// Config parameterises a Bus.
type Config struct {
	// ErrorRate is the probability that a transmission suffers a bit error
	// and must be retried. Zero disables error injection.
	ErrorRate float64
	// Seed feeds the deterministic RNG used for error injection.
	Seed uint64
}

// Bus is the shared broadcast medium of Fig. 2. All attached nodes receive
// every successfully transmitted frame except the sender; when several nodes
// contend, the lowest arbitration value (highest priority) wins, and losers
// retry, as on a real CSMA/CR bus.
//
// # Ownership model
//
// A Bus and its Nodes follow a single-owner execution model: every mutating
// call (Send, Attach, Detach, SetTracer, the scheduler-driven arbitration
// and delivery machinery) must happen on the goroutine that drives the
// owning sim.Scheduler. Because a Scheduler is strictly single-goroutine,
// the hot path carries no locks at all. The only cross-goroutine facade is
// Stats(), which may be called from another goroutine only across a
// synchronising handoff (the fleet engine's merger joins its workers before
// reading); there is exactly one writer, the owning goroutine.
type Bus struct {
	sched   *sim.Scheduler
	errRate float64
	rng     *sim.RNG

	nodes      []*Node
	byName     map[string]*Node
	namesEvict bool // a snapped node left byName (Detach); RestoreFrom must re-admit
	busy       bool
	kickArmed  bool // an arbitration round is already scheduled for this instant
	tracer     func(TraceEvent)

	// rogues recycles post-snapshot node shells across restores when
	// SetRecycleRogues is on: RestoreFrom stashes them here instead of
	// discarding, and Attach restores a shell of the same name to the
	// fresh-node snapshot while keeping its transmit-queue and mailbox
	// capacity.
	recycleRogues bool
	rogues        map[string]*Node

	// txPending lists the nodes with queued frames (unordered; arbitration
	// ties resolve by Node.order). Arbitration rounds walk this list instead
	// of scanning every station's queue state — with eight stations and
	// usually one transmitter, the full scan per round was one of the
	// hottest loops of a fleet sweep.
	txPending []*Node
	// orderSeq assigns Node.order at attach; a snapshot captures it, so
	// rogues attached after a restore replay identical orders.
	orderSeq int32

	// wireCache memoises WireBits by frame content: periodic traffic and
	// repeated injections re-transmit identical frames, and counting stuff
	// bits is the single most expensive step of starting a transmission.
	// The mapping is pure, so the cache survives every restore — as does the
	// single-entry front cache (lastWireBits==0 means empty).
	wireCache    map[wireKey]int
	lastWireKey  wireKey
	lastWireBits int

	// In-flight transmission, valid while busy. Storing it on the bus (one
	// transmission can be in flight at a time) lets arbitrate reuse the two
	// pre-bound events below instead of allocating a closure per frame.
	// txBuf owns the in-flight payload: the winner's queue entry may shift
	// (popHead) before delivery, so txFrame.Data must not alias it.
	txNode   *Node
	txFrame  Frame
	txBuf    [MaxDataLen]byte
	txFailed bool

	kickEvent     sim.Event // runs arbitrate
	deferredKick  sim.Event // runs kickNow at the error-recovery instant (complete's error path)
	completeEvent sim.Event // runs complete
	rxScratch     []*Node   // cached receiver snapshot; rebuilt when rxDirty
	rxDirty       bool      // topology changed since rxScratch was built

	// pristine is the node set captured by MarkPristine, in attachment
	// order; every BusSnapshot is index-aligned with it. mark is the
	// snapshot MarkPristine took, the state Reset restores.
	pristine []*Node
	mark     BusSnapshot

	stats busCounters
}

// busCounters is the backing store for BusStats. Plain fields, written only
// by the owner goroutine (see Bus ownership model): the counters sit on the
// per-frame hot path, where the former atomic increments cost several
// percent of a fleet sweep on their own.
type busCounters struct {
	framesDelivered uint64
	errors          uint64
	writeBlocked    uint64
	readBlocked     uint64
	abortedTx       uint64
	busyTime        time.Duration
}

// New creates a bus driven by the given scheduler.
func New(sched *sim.Scheduler, cfg Config) *Bus {
	b := &Bus{
		sched:     sched,
		rng:       new(sim.RNG),
		byName:    map[string]*Node{},
		wireCache: map[wireKey]int{},
	}
	b.configure(cfg)
	b.kickEvent = func(time.Duration) {
		b.kickArmed = false
		b.arbitrate()
	}
	b.deferredKick = func(time.Duration) { b.kickNow() }
	b.completeEvent = func(time.Duration) { b.complete() }
	return b
}

// configure applies cfg's error rate and RNG seed.
func (b *Bus) configure(cfg Config) {
	b.errRate = cfg.ErrorRate
	b.rng.Reseed(cfg.Seed)
}

// Scheduler returns the simulation scheduler driving this bus.
func (b *Bus) Scheduler() *sim.Scheduler { return b.sched }

// SetTracer installs a callback receiving every TraceEvent. Pass nil to
// disable tracing. Owner-goroutine only. The event's Frame payload is only
// valid during the callback (see Handler); a tracer that retains events
// must Clone the frame.
func (b *Bus) SetTracer(fn func(TraceEvent)) {
	b.tracer = fn
}

// Stats returns a snapshot of the bus counters. Owner-goroutine only, or
// from another goroutine across a synchronising handoff (see the ownership
// model above).
func (b *Bus) Stats() BusStats {
	return BusStats{
		FramesDelivered: b.stats.framesDelivered,
		Errors:          b.stats.errors,
		WriteBlocked:    b.stats.writeBlocked,
		ReadBlocked:     b.stats.readBlocked,
		AbortedTx:       b.stats.abortedTx,
		BusyTime:        b.stats.busyTime,
	}
}

// SetRecycleRogues enables recycling of post-snapshot node shells across
// Reset and RestoreFrom: instead of being discarded, a rogue node is parked
// detached, and the next Attach of the same name restores the same object
// from the fresh-node snapshot every Attach starts from, preserving its
// queue capacity. A recycled shell aliases any stale reference a caller
// kept from its previous life, so this is only for single-owner harnesses
// that drop all node references between resets (the attack arena); the
// default keeps the discard semantics.
func (b *Bus) SetRecycleRogues(on bool) {
	b.recycleRogues = on
	if on && b.rogues == nil {
		b.rogues = map[string]*Node{}
	}
}

// Attach creates a node with the given name and joins it to the bus.
// Names must be unique per bus.
func (b *Bus) Attach(name string) (*Node, error) {
	if _, dup := b.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	n, parked := b.rogues[name]
	if parked && b.recycleRogues {
		delete(b.rogues, name)
	} else {
		n = &Node{name: name, bus: b, ctrl: NewController()}
	}
	n.restoreState(&freshNode)
	n.order = b.orderSeq
	b.orderSeq++
	b.nodes = append(b.nodes, n)
	b.byName[name] = n
	b.rxDirty = true
	return n, nil
}

// MustAttach is Attach that panics on duplicate names; for static topologies.
func (b *Bus) MustAttach(name string) *Node {
	n, err := b.Attach(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Detach removes a node from the bus (e.g. a malicious node being pulled).
// The node keeps its statistics but can no longer send or receive. If the
// node is mid-transmission, the transmission is abandoned: no delivery
// happens and the bus frees after the scheduled completion instant.
func (b *Bus) Detach(name string) bool {
	n, ok := b.byName[name]
	if !ok {
		return false
	}
	delete(b.byName, name)
	if n.snapped {
		b.namesEvict = true
	}
	for i, m := range b.nodes {
		if m == n {
			b.nodes = append(b.nodes[:i], b.nodes[i+1:]...)
			break
		}
	}
	n.detached = true
	n.txq = nil
	b.dropPending(n)
	b.rxDirty = true
	return true
}

// notePending adds a node to the pending-transmitter list (idempotent).
func (b *Bus) notePending(n *Node) {
	if !n.txPending {
		n.txPending = true
		b.txPending = append(b.txPending, n)
	}
}

// dropPending removes a node from the pending-transmitter list (idempotent).
func (b *Bus) dropPending(n *Node) {
	if !n.txPending {
		return
	}
	n.txPending = false
	for i, m := range b.txPending {
		if m == n {
			b.txPending = append(b.txPending[:i], b.txPending[i+1:]...)
			return
		}
	}
}

// Node returns the attached node with the given name.
func (b *Bus) Node(name string) (*Node, bool) {
	n, ok := b.byName[name]
	return n, ok
}

// Nodes returns the attached nodes sorted by name.
func (b *Bus) Nodes() []*Node {
	out := append([]*Node(nil), b.nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (b *Bus) emit(e TraceEvent) {
	if b.tracer != nil {
		b.tracer(e)
	}
}

func (b *Bus) noteWriteBlocked(n *Node, f Frame) {
	b.stats.writeBlocked++
	if b.tracer != nil {
		b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceWriteBlocked, Node: n.name, Frame: f})
	}
}

func (b *Bus) noteReadBlocked(n *Node, f Frame) {
	b.stats.readBlocked++
	if b.tracer != nil {
		b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceReadBlocked, Node: n.name, Frame: f})
	}
}

// kick schedules an arbitration round at the current virtual instant. The
// one-event deferral models start-of-frame synchronisation: every node that
// queued a frame "now" contends in the same round instead of the first
// caller seizing the bus. Rounds are deduplicated: many frames queued at one
// instant arm a single arbitration event (the extra rounds were no-ops — the
// first one seizes the bus — so dedup changes no outcome, just event count).
func (b *Bus) kick() {
	if b.kickArmed {
		return
	}
	b.kickArmed = true
	b.sched.After(0, b.kickEvent)
}

// kickNow is kick for the bus's own completion machinery, called as the
// *last* action of its event callback. The zero-delay hop exists so every
// frame queued by other work at this same instant joins the arbitration
// round (SOF sync). At the end of a bus-internal event, the only remaining
// same-instant work is whatever sits in the queue: if the earliest queued
// event lies strictly in the future, the hop is provably a no-op, and the
// round runs inline — sparing the scheduler a push/pop per frame. Send-side
// kicks can never take this shortcut: the caller's own callback may queue
// more same-instant frames after Send returns.
func (b *Bus) kickNow() {
	if b.kickArmed {
		return
	}
	if next, ok := b.sched.NextAt(); !ok || next > b.sched.Now() {
		b.arbitrate()
		return
	}
	b.kickArmed = true
	b.sched.After(0, b.kickEvent)
}

// wireKey identifies a frame's exact wire encoding for the bit-count memo.
type wireKey struct {
	id    uint32
	dlc   uint8
	flags uint8 // bit 0: extended, bit 1: RTR
	data  [MaxDataLen]byte
}

// wireBitsOf is WireBits memoised by frame content.
func (b *Bus) wireBitsOf(f Frame) (int, error) {
	var k wireKey
	k.id, k.dlc = f.ID, f.DLC
	if f.Extended {
		k.flags |= 1
	}
	if f.RTR {
		k.flags |= 2
	}
	copy(k.data[:], f.Data)
	// Repeated transmissions of one frame arrive back to back (periodic
	// traffic, injection trains), so a single-entry cache in front of the
	// memo map skips the map hash on the common path.
	if k == b.lastWireKey && b.lastWireBits > 0 {
		return b.lastWireBits, nil
	}
	if n, ok := b.wireCache[k]; ok {
		b.lastWireKey, b.lastWireBits = k, n
		return n, nil
	}
	n, err := WireBits(f)
	if err != nil {
		return 0, err
	}
	if len(b.wireCache) < 4096 { // bound the memo; beyond it, recompute
		b.wireCache[k] = n
	}
	b.lastWireKey, b.lastWireBits = k, n
	return n, nil
}

// arbitrate starts a transmission if the bus is idle and someone has a
// pending frame.
func (b *Bus) arbitrate() {
	if b.busy {
		return
	}
	winner := b.pickWinner()
	if winner == nil {
		return
	}
	// Load the in-flight transmission straight from the winner's queue
	// entry: header from the queued frame, payload copied into the bus's
	// own buffer (the entry may shift before delivery).
	head := &winner.txq[0]
	b.busy = true
	b.txNode = winner
	b.txFrame = head.f
	if !head.f.RTR && head.dataLen > 0 {
		n := copy(b.txBuf[:], head.buf[:head.dataLen])
		b.txFrame.Data = b.txBuf[:n]
	}
	bits, err := b.wireBitsOf(b.txFrame)
	if err != nil {
		// Frames are validated in Send; an encode failure here is a bug.
		panic(fmt.Errorf("canbus: unencodable queued frame: %w", err))
	}
	dur := time.Duration(bits) * bitTime
	b.txFailed = b.errRate > 0 && b.rng.Bool(b.errRate)
	b.stats.busyTime += dur
	if b.tracer != nil {
		b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceTxStart, Node: winner.name, Frame: b.txFrame})
	}
	b.sched.After(dur, b.completeEvent)
}

// pickWinner selects the winning node among all nodes with pending frames
// and charges losers an arbitration loss. Ties on arbitration value are
// broken by attachment order, which stands in for the bit-level resolution a
// real bus performs.
func (b *Bus) pickWinner() *Node {
	// The contenders are exactly the pending-transmitter list: membership is
	// maintained at every queue transition (Send, popHead, bus-off, detach,
	// restore), so no per-round scan of the full station set is needed. The
	// list is unordered; ties on arbitration value resolve by attachment
	// order via Node.order, reproducing the ordered-scan semantics.
	// Uncontended fast path: most rounds have exactly one transmitter.
	if len(b.txPending) == 1 {
		return b.txPending[0]
	}
	var (
		winner  *Node
		bestVal uint64
	)
	for _, n := range b.txPending {
		v := n.txq[0].f.ArbitrationValue()
		if winner == nil || v < bestVal || (v == bestVal && n.order < winner.order) {
			winner, bestVal = n, v
		}
	}
	if winner == nil {
		return nil
	}
	for _, n := range b.txPending {
		if n != winner {
			n.noteArbitrationLoss()
		}
	}
	return winner
}

// complete finishes the in-flight transmission: on error the transmitter's
// TEC grows and the frame is retried (unless bus-off); on success the frame
// is broadcast to every other node. A transmitter detached mid-frame aborts
// the transmission without delivery.
func (b *Bus) complete() {
	tx, f, failed := b.txNode, b.txFrame, b.txFailed
	b.txNode, b.txFrame = nil, Frame{}

	if tx.detached {
		// The transmitter was pulled off the bus mid-frame (satellite of the
		// §V-B.2 malicious-node response): the partial frame is abandoned,
		// nothing is delivered or counted against the detached node, and the
		// bus frees for the next arbitration round.
		b.stats.abortedTx++
		b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceTxAborted, Node: tx.name, Frame: f})
		b.busy = false
		b.kickNow()
		return
	}

	if failed {
		st := tx.txError()
		b.stats.errors++
		b.stats.busyTime += time.Duration(errorFrameBits) * bitTime
		b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceError, Node: tx.name, Frame: f})
		if st == BusOff {
			b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceBusOff, Node: tx.name, Frame: f})
		}
		b.busy = false
		// Schedule kick, not arbitrate, at the recovery instant: the extra
		// zero-delay hop lets frames queued by other events firing at that
		// same instant join the arbitration round (kick's SOF-sync model).
		b.sched.After(time.Duration(errorFrameBits)*bitTime, b.deferredKick)
		return
	}

	tx.popHead()
	b.stats.framesDelivered++
	if b.tracer != nil {
		b.emit(TraceEvent{At: b.sched.Now(), Kind: TraceDelivered, Node: tx.name, Frame: f})
	}
	b.busy = false
	// Deliver over a snapshot of the receiver set: a reentrant handler may
	// Attach/Detach and mutate b.nodes mid-loop. The snapshot pins the set
	// to transmission time (late joiners miss the frame); deliver itself
	// skips nodes detached mid-loop. The snapshot is cached and only rebuilt
	// after a topology change — copying eight node pointers per frame (with
	// their GC write barriers) showed up in fleet-sweep profiles.
	if b.rxDirty {
		b.rxScratch = append(b.rxScratch[:0], b.nodes...)
		b.rxDirty = false
	}
	for _, n := range b.rxScratch {
		if n != tx {
			n.deliver(f)
		}
	}
	b.kickNow()
}

// MarkPristine marks the attached nodes as the pristine topology and takes
// the Snapshot that Reset restores. Call it once, on the freshly built
// topology before any traffic (car.New does): whatever the nodes carry at
// this instant — filters, handlers, inline filters, mailbox caps, remote
// responders — survives every Reset. The bus must be Quiescent (Snapshot
// panics otherwise). A bus that was never marked resets to an empty
// topology. Owner-goroutine only.
func (b *Bus) MarkPristine() {
	b.pristine = append(b.pristine[:0], b.nodes...)
	for _, n := range b.nodes {
		n.snapped = true
	}
	b.Snapshot(&b.mark)
}

// Reset is RestoreFrom of MarkPristine's snapshot followed by cfg's error
// rate and RNG seed: nodes attached since are discarded (marked detached,
// so stale references fail safe) or parked for recycling, and every
// pristine node, the counters and the topology come back exactly as
// marked. Allocation-free. The owning scheduler is NOT touched — reset it
// first (car.Car.Reset does). Owner-goroutine only.
func (b *Bus) Reset(cfg Config) {
	b.RestoreFrom(&b.mark)
	b.configure(cfg)
}

// Utilisation returns the fraction of elapsed virtual time the bus was busy.
func (b *Bus) Utilisation() float64 {
	now := b.sched.Now()
	if now <= 0 {
		return 0
	}
	return float64(b.stats.busyTime) / float64(now)
}
