package canbus

import "maps"

// This file implements the bus substrate's one rewind path: Snapshot
// captures the full mutable state of a pristine topology at an instant where
// no transmission is in flight, and RestoreFrom rewinds the bus to that
// capture (post-snapshot nodes discarded or parked, every pristine node
// overwritten from its capture). Reset is RestoreFrom of the snapshot
// MarkPristine took, and Attach starts every node, new or recycled, from
// freshNode. The attack arena also uses the pair to replay a shared
// scenario prefix once per enforcement regime and fork every cell of a
// mutate family from it.
//
// Quiescence is the load-bearing simplification: at a drained-scheduler
// instant the bus is idle (busy=false, no armed kick, empty transmit
// queues), so a checkpoint needs no in-flight frame, no pending-transmitter
// list and no per-node queue contents — only counters, filters and receive
// state. Snapshot panics when Quiescent is false rather than capturing a
// state it could not faithfully restore.

// NodeSnapshot captures one pristine node's mutable state at a quiescent
// instant (empty transmit queue). Controller filter banks are aliased, not
// copied: filters are only read or replaced wholesale (SetFilters copies its
// input), so a restored bank can share the capture's backing array.
type NodeSnapshot struct {
	inline   InlineFilter
	stats    NodeStats
	counters ErrorCounters

	// Controller state.
	filters     []AcceptanceFilter
	exact       *[(MaxStandardID + 1) / 64]uint64
	handler     Handler
	mailboxCap  int
	compromised bool
	overruns    uint64
	mailbox     []Frame // owned deep copy; frames Cloned both ways

	// Remote auto-responders, copied only when any are registered (the car
	// topology registers none, so the common capture stays allocation-free).
	responders map[uint32]func() []byte
}

// freshNode is the state Attach gives every node, new or recycled: the
// permissive inline filter and everything else zero.
var freshNode = NodeSnapshot{inline: PermissiveFilter{}}

// snapshotState captures the node's mutable state into dst, reusing dst's
// buffers across captures. The transmit queue must be empty (Quiescent).
func (n *Node) snapshotState(dst *NodeSnapshot) {
	dst.inline = n.inline
	dst.stats = n.stats
	dst.counters = n.counters
	c := n.ctrl
	dst.filters = c.filters
	dst.exact = c.exact
	dst.handler = c.handler
	dst.mailboxCap = c.mailboxCap
	dst.compromised = c.compromised
	dst.overruns = c.overruns
	dst.mailbox = dst.mailbox[:0]
	for _, f := range c.mailbox {
		dst.mailbox = append(dst.mailbox, f.Clone())
	}
	dst.responders = copyResponders(dst.responders, n.responders)
}

// copyResponders overwrites dst with src's entries and returns it, making
// dst only when src has entries to copy: the common node has none, and even
// ranging over an empty map costs a measurable share of a reset.
func copyResponders(dst, src map[uint32]func() []byte) map[uint32]func() []byte {
	clear(dst)
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[uint32]func() []byte, len(src))
	}
	maps.Copy(dst, src)
	return dst
}

// restoreState rewinds the node to the captured state, allocation-free once
// its buffers are warm: the node rejoins with an empty transmit queue and
// every captured field overwritten. It is the node's only rewind:
// RestoreFrom (and so Reset) applies it to pristine nodes, Attach applies
// freshNode.
func (n *Node) restoreState(src *NodeSnapshot) {
	n.inline = src.inline
	n.stats = src.stats
	n.counters = src.counters
	n.txq = n.txq[:0]
	n.detached = false
	n.responders = copyResponders(n.responders, src.responders)
	c := n.ctrl
	c.filters = src.filters
	c.exact = src.exact
	c.handler = src.handler
	c.mailboxCap = src.mailboxCap
	c.compromised = src.compromised
	c.overruns = src.overruns
	c.mailbox = c.mailbox[:0]
	for _, f := range src.mailbox {
		c.mailbox = append(c.mailbox, f.Clone())
	}
}

// BusSnapshot captures a quiescent bus's full mutable state: error rate,
// RNG position, counters and every pristine node's state. Reusable — the
// arena holds one per (prefix, regime) and overwrites it per bucket.
type BusSnapshot struct {
	errRate  float64
	rngState uint64
	orderSeq int32
	stats    busCounters
	nodes    []NodeSnapshot // index-aligned with the pristine set
}

// Quiescent reports whether the bus satisfies Snapshot's preconditions: no
// in-flight transmission, no armed arbitration round, no pending
// transmitters, and exactly the pristine topology attached — every pristine
// node, no other node — with every transmit queue empty. It is the cheap
// probe the attack arena uses to turn the Snapshot panic into a recoverable
// ErrNotQuiescent.
func (b *Bus) Quiescent() bool {
	if b.busy || b.kickArmed || len(b.txPending) != 0 || len(b.nodes) != len(b.pristine) {
		return false
	}
	// A detached pristine node can never rejoin (Attach makes a new node),
	// so equal counts of snapped nodes mean the pristine set itself.
	for _, n := range b.nodes {
		if !n.snapped || len(n.txq) != 0 {
			return false
		}
	}
	return true
}

// Snapshot captures the bus's state into dst for a later RestoreFrom. The
// bus must be Quiescent — which holds at any drained-scheduler instant
// before attackers are placed — and Snapshot panics otherwise. The tracer
// is not captured; RestoreFrom clears it.
func (b *Bus) Snapshot(dst *BusSnapshot) {
	if !b.Quiescent() {
		panic("canbus: Snapshot of a non-quiescent bus or non-pristine topology")
	}
	dst.errRate = b.errRate
	dst.rngState = b.rng.State()
	dst.orderSeq = b.orderSeq
	dst.stats = b.stats
	if cap(dst.nodes) < len(b.pristine) {
		dst.nodes = make([]NodeSnapshot, len(b.pristine))
	}
	dst.nodes = dst.nodes[:len(b.pristine)]
	for i, n := range b.pristine {
		n.snapshotState(&dst.nodes[i])
	}
}

// RestoreFrom rewinds the bus to a state captured by Snapshot: nodes
// attached after the capture (a cell's outside attacker) are discarded
// (marked detached) or parked for recycling, pristine nodes Detach removed
// rejoin, every pristine node is restored to its captured state, the tracer
// is removed and the error-injection RNG resumes at its captured stream
// position. The owning scheduler is not touched — restore it first
// (car.Car.RestoreFrom does). Owner-goroutine only.
func (b *Bus) RestoreFrom(src *BusSnapshot) {
	b.errRate = src.errRate
	b.rng.SetState(src.rngState)
	b.orderSeq = src.orderSeq
	b.busy = false
	b.kickArmed = false
	b.txNode, b.txFrame, b.txFailed = nil, Frame{}, false
	b.tracer = nil
	for _, n := range b.txPending {
		n.txPending = false
	}
	b.txPending = b.txPending[:0]
	for _, n := range b.nodes {
		if !n.snapped {
			n.detached = true
			delete(b.byName, n.name)
			if b.recycleRogues {
				// Park the shell (queue capacity intact) for the next
				// Attach of this name.
				b.rogues[n.name] = n
			} else {
				n.txq = nil
			}
		}
	}
	b.nodes = append(b.nodes[:0], b.pristine...)
	b.rxDirty = true
	for i, n := range b.pristine {
		n.restoreState(&src.nodes[i])
	}
	if b.namesEvict {
		// Re-admit pristine nodes Detach removed. Guarded: eight map assigns
		// per restore are measurable when a sweep resets per scenario cell,
		// and attach/detach of post-snapshot nodes never touches pristine
		// names.
		for _, n := range b.pristine {
			b.byName[n.name] = n
		}
		b.namesEvict = false
	}
	b.stats = src.stats
}
