package canbus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func newTestBus(t *testing.T, cfg Config) (*sim.Scheduler, *Bus) {
	t.Helper()
	sched := &sim.Scheduler{}
	return sched, New(sched, cfg)
}

func TestBroadcastDelivery(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	a := bus.MustAttach("a")
	b := bus.MustAttach("b")
	c := bus.MustAttach("c")
	var gotB, gotC []Frame
	b.Controller().SetHandler(func(f Frame) { gotB = append(gotB, f) })
	c.Controller().SetHandler(func(f Frame) { gotC = append(gotC, f) })

	f := MustDataFrame(0x123, []byte{1, 2})
	if err := a.Send(f); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if len(gotB) != 1 || !sameFrame(gotB[0], f) {
		t.Errorf("node b received %v", gotB)
	}
	if len(gotC) != 1 || !sameFrame(gotC[0], f) {
		t.Errorf("node c received %v", gotC)
	}
	if st := a.Stats(); st.RxAccepted != 0 {
		t.Error("sender received its own frame")
	}
	if st := bus.Stats(); st.FramesDelivered != 1 {
		t.Errorf("FramesDelivered = %d", st.FramesDelivered)
	}
}

func TestArbitrationPriority(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	lo := bus.MustAttach("low-priority")
	hi := bus.MustAttach("high-priority")
	sink := bus.MustAttach("sink")
	var order []uint32
	sink.Controller().SetHandler(func(f Frame) { order = append(order, f.ID) })

	// Queue both before any event runs: they contend for the idle bus.
	if err := lo.Send(MustDataFrame(0x400, nil)); err != nil {
		t.Fatal(err)
	}
	if err := hi.Send(MustDataFrame(0x010, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if len(order) != 2 || order[0] != 0x010 || order[1] != 0x400 {
		t.Fatalf("delivery order %v, want [0x010 0x400]", order)
	}
	if st := lo.Stats(); st.ArbitrationLosses == 0 {
		t.Error("low-priority node recorded no arbitration loss")
	}
}

func TestAcceptanceFilters(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	var got []uint32
	rx.Controller().SetFilters(ExactFilter(0x100))
	rx.Controller().SetHandler(func(f Frame) { got = append(got, f.ID) })

	for _, id := range []uint32{0x100, 0x200, 0x100, 0x300} {
		if err := tx.Send(MustDataFrame(id, nil)); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()

	if len(got) != 2 {
		t.Fatalf("accepted %v, want two 0x100 frames", got)
	}
	st := rx.Stats()
	if st.RxFiltered != 2 {
		t.Errorf("RxFiltered = %d, want 2", st.RxFiltered)
	}
	if st.RxSeen != 4 {
		t.Errorf("RxSeen = %d, want 4", st.RxSeen)
	}
}

func TestCompromisedControllerBypassesFilters(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	n := 0
	rx.Controller().SetFilters(ExactFilter(0x100))
	rx.Controller().SetHandler(func(Frame) { n++ })
	rx.Controller().CompromiseFilters()

	if err := tx.Send(MustDataFrame(0x700, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if n != 1 {
		t.Error("compromised controller still filtered")
	}
}

// blockWrites blocks outbound frames with the given ID.
type blockWrites uint32

func (b blockWrites) Decide(dir Direction, f Frame) Verdict {
	if dir == Write && f.ID == uint32(b) {
		return Block
	}
	return Grant
}

// blockReads blocks inbound frames with the given ID.
type blockReads uint32

func (b blockReads) Decide(dir Direction, f Frame) Verdict {
	if dir == Read && f.ID == uint32(b) {
		return Block
	}
	return Grant
}

func TestInlineFilterWritePath(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	n := 0
	rx.Controller().SetHandler(func(Frame) { n++ })
	tx.SetInlineFilter(blockWrites(0x666))

	if err := tx.Send(MustDataFrame(0x666, nil)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(MustDataFrame(0x100, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if n != 1 {
		t.Fatalf("receiver got %d frames, want 1", n)
	}
	if st := tx.Stats(); st.TxBlocked != 1 {
		t.Errorf("TxBlocked = %d, want 1", st.TxBlocked)
	}
	if st := bus.Stats(); st.WriteBlocked != 1 {
		t.Errorf("bus WriteBlocked = %d, want 1", st.WriteBlocked)
	}
}

func TestInlineFilterReadPath(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	other := bus.MustAttach("other")
	nRx, nOther := 0, 0
	rx.Controller().SetHandler(func(Frame) { nRx++ })
	other.Controller().SetHandler(func(Frame) { nOther++ })
	rx.SetInlineFilter(blockReads(0x123))

	if err := tx.Send(MustDataFrame(0x123, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if nRx != 0 {
		t.Error("inline read filter did not block")
	}
	if nOther != 1 {
		t.Error("unfiltered node should still receive the broadcast")
	}
	if st := rx.Stats(); st.RxBlocked != 1 {
		t.Errorf("RxBlocked = %d, want 1", st.RxBlocked)
	}
}

func TestInlineFilterIsTransparentToCompromise(t *testing.T) {
	// §V-B.2: compromising the controller firmware must not bypass the
	// inline (hardware) filter.
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	n := 0
	rx.Controller().SetHandler(func(Frame) { n++ })
	rx.SetInlineFilter(blockReads(0x123))
	rx.Controller().CompromiseFilters()

	if err := tx.Send(MustDataFrame(0x123, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if n != 0 {
		t.Error("firmware compromise bypassed the inline filter")
	}
}

func TestErrorInjectionAndRetransmission(t *testing.T) {
	// 20% error rate: enough to exercise retransmission without driving
	// the transmitter's TEC (+8 per error, -1 per success) to bus-off.
	sched, bus := newTestBus(t, Config{ErrorRate: 0.2, Seed: 12345})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	n := 0
	rx.Controller().SetHandler(func(Frame) { n++ })

	for i := 0; i < 50; i++ {
		if err := tx.Send(MustDataFrame(0x100, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()

	st := bus.Stats()
	if st.Errors == 0 {
		t.Fatal("no errors injected at rate 0.5")
	}
	if n != 50 {
		t.Fatalf("delivered %d, want all 50 via retransmission", n)
	}
	if txs := tx.Stats(); txs.Retransmissions == 0 {
		t.Error("no retransmissions recorded")
	}
}

func TestBusOffAfterPersistentErrors(t *testing.T) {
	// Error rate 1: every transmission fails until the node goes bus-off.
	sched, bus := newTestBus(t, Config{ErrorRate: 1.0, Seed: 1})
	tx := bus.MustAttach("tx")
	bus.MustAttach("rx")

	if err := tx.Send(MustDataFrame(0x100, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if st := tx.counters.State(); st != BusOff {
		t.Fatalf("state = %v after persistent errors, want bus-off", st)
	}
	err := tx.Send(MustDataFrame(0x100, nil))
	if !errors.Is(err, ErrBusOff) {
		t.Fatalf("Send while bus-off = %v, want ErrBusOff", err)
	}
}

func TestDetach(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	rogue := bus.MustAttach("rogue")
	n := 0
	rx.Controller().SetHandler(func(Frame) { n++ })

	if !bus.Detach("rogue") {
		t.Fatal("Detach returned false")
	}
	if bus.Detach("rogue") {
		t.Fatal("double Detach returned true")
	}
	if err := rogue.Send(MustDataFrame(0x100, nil)); !errors.Is(err, ErrDetached) {
		t.Fatalf("detached Send = %v, want ErrDetached", err)
	}
	if err := tx.Send(MustDataFrame(0x100, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if n != 1 {
		t.Error("bus broken after detach")
	}
	if rogue.Stats().RxSeen != 0 {
		t.Error("detached node still receives")
	}
}

func TestDuplicateAttach(t *testing.T) {
	_, bus := newTestBus(t, Config{})
	bus.MustAttach("x")
	if _, err := bus.Attach("x"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Attach = %v, want ErrDuplicate", err)
	}
}

func TestBusTimingModel(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	bus.MustAttach("rx")

	f := MustDataFrame(0x123, []byte{1, 2, 3, 4})
	bits, err := WireBits(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(f); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	want := time.Duration(bits) * (time.Second / BitRate)
	if got := sched.Now(); got != want {
		t.Errorf("transmission completed at %v, want %v", got, want)
	}
	if u := bus.Utilisation(); u < 0.99 || u > 1.01 {
		t.Errorf("Utilisation = %v for a fully busy bus, want ~1", u)
	}
}

func TestTraceEvents(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	bus.MustAttach("rx")
	var kinds []TraceEventKind
	bus.SetTracer(func(e TraceEvent) { kinds = append(kinds, e.Kind) })

	if err := tx.Send(MustDataFrame(0x100, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if len(kinds) != 2 || kinds[0] != TraceTxStart || kinds[1] != TraceDelivered {
		t.Errorf("trace kinds = %v, want [tx-start delivered]", kinds)
	}
}

// TestNoHandlerAcceptsAndDiscards checks a station without a handler still
// runs the receive path: frames past its filters count as accepted, the
// rest as filtered.
func TestNoHandlerAcceptsAndDiscards(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	rx.Controller().SetFilters(ExactFilter(0x100))
	for _, id := range []uint32{0x100, 0x200, 0x100} {
		if err := tx.Send(MustDataFrame(id, nil)); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if st := rx.Stats(); st.RxAccepted != 2 || st.RxFiltered != 1 {
		t.Errorf("accepted %d, filtered %d; want 2 and 1", st.RxAccepted, st.RxFiltered)
	}
}

func TestSendValidatesFrames(t *testing.T) {
	_, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	bad := Frame{ID: MaxStandardID + 1}
	if err := tx.Send(bad); !errors.Is(err, ErrIDRange) {
		t.Fatalf("Send(bad) = %v, want ErrIDRange", err)
	}
}

func TestQueueDrainOrderFIFOPerNode(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	rx := bus.MustAttach("rx")
	var got []byte
	rx.Controller().SetHandler(func(f Frame) { got = append(got, f.Data[0]) })
	for i := 0; i < 5; i++ {
		if err := tx.Send(MustDataFrame(0x100, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("per-node FIFO violated: %v", got)
		}
	}
}

func TestErrorCountersStateMachine(t *testing.T) {
	var c ErrorCounters
	if c.State() != ErrorActive {
		t.Fatal("zero counters should be error-active")
	}
	for i := 0; i < errorPassiveThreshold/txErrorPenalty; i++ {
		c.OnTxError()
	}
	if c.State() != ErrorPassive {
		t.Fatalf("TEC=%d should be error-passive", c.tec)
	}
	for c.State() != BusOff {
		c.OnTxError()
	}
	if c.tec < busOffThreshold {
		t.Errorf("bus-off with TEC=%d < %d", c.tec, busOffThreshold)
	}
}

func TestDetachMidTransmissionAbortsWithoutDelivery(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	a := bus.MustAttach("a")
	b := bus.MustAttach("b")
	got := 0
	b.Controller().SetHandler(func(Frame) { got++ })

	if err := a.Send(MustDataFrame(0x123, []byte{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	// A data frame takes tens of microseconds on the wire; pull the
	// transmitter off the bus while its frame is still in flight.
	sched.At(10*time.Microsecond, func(time.Duration) {
		if !bus.Detach("a") {
			t.Error("Detach(a) reported no such node")
		}
	})
	sched.Run()

	if got != 0 {
		t.Errorf("receiver got %d frames from a detached transmitter, want 0", got)
	}
	st := bus.Stats()
	if st.FramesDelivered != 0 {
		t.Errorf("FramesDelivered = %d, want 0", st.FramesDelivered)
	}
	if st.AbortedTx != 1 {
		t.Errorf("AbortedTx = %d, want 1", st.AbortedTx)
	}
	if ns := a.Stats(); ns.TxCompleted != 0 {
		t.Errorf("detached transmitter counted TxCompleted = %d, want 0", ns.TxCompleted)
	}

	// The bus must not be wedged: surviving nodes keep transmitting.
	c := bus.MustAttach("c")
	if err := c.Send(MustDataFrame(0x200, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if got != 1 {
		t.Errorf("post-detach delivery count = %d, want 1", got)
	}
}

func TestDetachCurrentArbitrationWinnerPromotesLoser(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	win := bus.MustAttach("winner")
	lose := bus.MustAttach("loser")
	sink := bus.MustAttach("sink")
	var order []uint32
	sink.Controller().SetHandler(func(f Frame) { order = append(order, f.ID) })

	if err := win.Send(MustDataFrame(0x010, nil)); err != nil {
		t.Fatal(err)
	}
	if err := lose.Send(MustDataFrame(0x400, nil)); err != nil {
		t.Fatal(err)
	}
	sched.At(5*time.Microsecond, func(time.Duration) { bus.Detach("winner") })
	sched.Run()

	if len(order) != 1 || order[0] != 0x400 {
		t.Fatalf("delivered %v, want only the loser's 0x400 after the winner detached", order)
	}
}

func TestReentrantDetachDuringDeliveryDoesNotSkipReceivers(t *testing.T) {
	sched, bus := newTestBus(t, Config{})
	tx := bus.MustAttach("tx")
	a := bus.MustAttach("a")
	bus.MustAttach("b")
	c := bus.MustAttach("c")
	gotC := 0
	// Node a's handler pulls node b off the bus mid-delivery (the §V-B.2
	// malicious-node response); node c must still receive the frame.
	a.Controller().SetHandler(func(Frame) { bus.Detach("b") })
	c.Controller().SetHandler(func(Frame) { gotC++ })

	if err := tx.Send(MustDataFrame(0x123, nil)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if gotC != 1 {
		t.Errorf("node c received %d frames, want 1 (reentrant Detach must not skip receivers)", gotC)
	}
	if _, ok := bus.Node("b"); ok {
		t.Error("node b still attached")
	}
}
