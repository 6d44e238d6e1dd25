package canbus

import (
	"errors"
	"fmt"
)

// Handler is the processor-side callback a node application registers to
// consume frames that survived the inbound filter chain (Fig. 3: the
// micro-controller / DSP behind the CAN controller).
//
// The frame's payload is only valid for the duration of the callback: its
// Data may alias the bus's in-flight transmission buffer, which is reused
// by the next transmission (like a receive buffer behind a real
// controller's ISR). A handler that retains the frame must Clone it.
type Handler func(f Frame)

// Controller models the CAN controller of Fig. 3: it parses received frames
// and applies the firmware-programmed acceptance filters. If no filters are
// configured the controller accepts every frame, as most controllers do by
// default. A controller without a handler discards the frames it accepts.
//
// Like Bus and Node, a Controller is confined to the goroutine that drives
// the owning scheduler (see the Bus ownership model).
type Controller struct {
	filters     []AcceptanceFilter
	compromised bool
	handler     Handler

	// exact is the direct-mapped fast path built by SetFilters when every
	// filter is a standard-frame exact match (the common firmware
	// configuration): one bit per 11-bit identifier. nil when any filter
	// needs the general mask/code walk. Built bitmaps are immutable, so a
	// snapshot shares one by pointer.
	exact *[(MaxStandardID + 1) / 64]uint64
}

// NewController returns a controller with no filters and no handler.
func NewController() *Controller {
	return &Controller{}
}

// SetFilters replaces the acceptance filter bank. The slice is copied.
func (c *Controller) SetFilters(filters ...AcceptanceFilter) {
	c.filters = append([]AcceptanceFilter(nil), filters...)
	c.exact = nil
	if len(filters) == 0 {
		return
	}
	for _, f := range filters {
		if f.Mask != MaxStandardID || f.Code > MaxStandardID {
			return
		}
	}
	var bm [(MaxStandardID + 1) / 64]uint64
	for _, f := range filters {
		bm[f.Code>>6] |= 1 << (f.Code & 63)
	}
	c.exact = &bm
}

// SetHandler registers the processor callback invoked for accepted frames.
func (c *Controller) SetHandler(h Handler) {
	c.handler = h
}

// CompromiseFilters models the firmware-modification attack of §V-B.2: a
// compromised controller stops honouring its acceptance filters. The paper's
// argument for a *hardware* policy engine is that it keeps filtering even in
// this state.
func (c *Controller) CompromiseFilters() {
	c.compromised = true
}

// accepts applies the acceptance filter bank (unless compromised).
func (c *Controller) accepts(f Frame) bool {
	if c.compromised {
		return true
	}
	if len(c.filters) == 0 {
		return true
	}
	if c.exact != nil {
		return !f.Extended && c.exact[f.ID>>6]&(1<<(f.ID&63)) != 0
	}
	for _, flt := range c.filters {
		if flt.Matches(f) {
			return true
		}
	}
	return false
}

// receive runs the controller-side receive path. It reports whether the
// frame was accepted past the filter bank.
func (c *Controller) receive(f Frame) bool {
	if !c.accepts(f) {
		return false
	}
	if c.handler != nil {
		c.handler(f)
	}
	return true
}

// queued is one transmit-queue entry: the frame value with its payload
// moved into the entry's inline buffer. Enqueueing therefore allocates
// nothing — the per-send Frame.Clone used to be the largest allocation
// source in a fleet sweep.
type queued struct {
	f       Frame // f.Data is nil; the payload lives in buf[:dataLen]
	buf     [MaxDataLen]byte
	dataLen uint8
}

// NodeStats counts per-node traffic and enforcement outcomes.
type NodeStats struct {
	// TxRequested counts frames handed to Send.
	TxRequested uint64
	// TxBlocked counts frames blocked by the inline (write) filter.
	TxBlocked uint64
	// TxCompleted counts frames successfully put on the bus.
	TxCompleted uint64
	// TxDroppedBusOff counts frames discarded because the node was bus-off.
	TxDroppedBusOff uint64
	// ArbitrationLosses counts lost arbitration rounds (frame retried later).
	ArbitrationLosses uint64
	// Retransmissions counts error-triggered retransmissions.
	Retransmissions uint64
	// RxSeen counts frames observed on the inbound path.
	RxSeen uint64
	// RxBlocked counts frames blocked by the inline (read) filter.
	RxBlocked uint64
	// RxFiltered counts frames rejected by the controller acceptance filters.
	RxFiltered uint64
	// RxAccepted counts frames delivered to the processor.
	RxAccepted uint64
}

// Node is one station on the bus (Fig. 3): transceiver + controller +
// processor, with the InlineFilter seam of Fig. 4 between controller and
// transceiver in both directions.
//
// A Node shares its Bus's single-owner execution model: all methods must be
// called from the goroutine driving the owning scheduler.
type Node struct {
	name string
	bus  *Bus

	ctrl     *Controller
	inline   InlineFilter
	counters ErrorCounters
	txq      []queued
	stats    NodeStats
	detached bool

	// order is the node's attachment sequence number; arbitration ties
	// resolve toward the lower order (the attachment-order tie-break).
	order int32
	// txPending mirrors membership in the bus's pending-transmitter list;
	// maintained at every transmit-queue transition.
	txPending bool

	// snapped marks a member of the pristine set (Bus.MarkPristine):
	// RestoreFrom rewinds it, and discards or parks every other node.
	snapped bool
}

// Node errors.
var (
	ErrBusOff    = errors.New("canbus: node is bus-off")
	ErrDetached  = errors.New("canbus: node is detached from the bus")
	ErrNoBus     = errors.New("canbus: node is not attached to a bus")
	ErrDuplicate = errors.New("canbus: node name already attached")
)

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Controller returns the node's CAN controller.
func (n *Node) Controller() *Controller { return n.ctrl }

// SetInlineFilter installs the Fig. 4 policy engine (or any InlineFilter) on
// this node. Passing nil restores the permissive default.
func (n *Node) SetInlineFilter(f InlineFilter) {
	if f == nil {
		f = PermissiveFilter{}
	}
	n.inline = f
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	return n.stats
}

// Send queues a frame for transmission. The outbound inline filter (the
// HPE's writing filter) is consulted first: blocked frames never reach the
// transmit queue, exactly as in Fig. 4 where the decision block sits before
// the transceiver.
func (n *Node) Send(f Frame) error {
	return n.send(f, false)
}

// SendFinal is Send for a caller that makes it the *last* action of its
// scheduler event callback: when no other event can fire at this instant,
// the arbitration round runs inline instead of through the zero-delay
// SOF-sync hop, sparing the scheduler a push/pop per frame. The outcome is
// identical to Send (the hop still happens whenever another same-instant
// event is queued); callers that do anything else after sending — including
// sending again — must use Send, or same-instant frames would miss the
// shared round. The attack harness's injection bursts qualify; hand-driven
// sends outside scheduler events do not.
func (n *Node) SendFinal(f Frame) error {
	return n.send(f, true)
}

func (n *Node) send(f Frame, final bool) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if n.detached {
		return ErrDetached
	}
	if n.bus == nil {
		return ErrNoBus
	}
	n.stats.TxRequested++
	if n.counters.State() == BusOff {
		n.stats.TxDroppedBusOff++
		return fmt.Errorf("%w: %s", ErrBusOff, n.name)
	}
	if v := n.inline.Decide(Write, f); v != Grant {
		n.stats.TxBlocked++
		n.bus.noteWriteBlocked(n, f)
		return nil
	}
	n.txq = append(n.txq, queued{})
	q := &n.txq[len(n.txq)-1]
	q.f = f
	q.f.Data = nil
	q.dataLen = uint8(copy(q.buf[:], f.Data))
	n.bus.notePending(n)
	if final {
		n.bus.kickNow()
	} else {
		n.bus.kick()
	}
	return nil
}

// deliver runs the inbound path: inline read filter, then controller
// acceptance filters, then the handler.
func (n *Node) deliver(f Frame) {
	if n.detached {
		return
	}
	n.stats.RxSeen++
	if v := n.inline.Decide(Read, f); v != Grant {
		n.stats.RxBlocked++
		if n.bus != nil {
			n.bus.noteReadBlocked(n, f)
		}
		return
	}
	if n.ctrl.receive(f) {
		n.stats.RxAccepted++
	} else {
		n.stats.RxFiltered++
	}
}

// popHead removes the head of the transmit queue after successful
// transmission. The queue shifts in place rather than re-slicing from the
// front: n.txq[1:] would walk the backing array forward until its spare
// capacity hit zero, making every later Send re-allocate the queue (and
// pinning popped frames). Queues are at most a handful of frames deep, so
// the copy is cheaper than the garbage.
func (n *Node) popHead() {
	if len(n.txq) > 0 {
		copy(n.txq, n.txq[1:])
		n.txq[len(n.txq)-1] = queued{}
		n.txq = n.txq[:len(n.txq)-1]
	}
	if len(n.txq) == 0 {
		n.bus.dropPending(n)
	}
	n.stats.TxCompleted++
	n.counters.OnTxSuccess()
}

// txError records a transmission error; the frame stays queued for retry
// unless the node went bus-off.
func (n *Node) txError() ErrorState {
	st := n.counters.OnTxError()
	if st == BusOff {
		n.txq = nil
		n.bus.dropPending(n)
	} else {
		n.stats.Retransmissions++
	}
	return st
}

// noteArbitrationLoss counts a lost arbitration round.
func (n *Node) noteArbitrationLoss() {
	n.stats.ArbitrationLosses++
}
