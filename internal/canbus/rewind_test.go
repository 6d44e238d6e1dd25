package canbus

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// rewindNames are FuzzBusRewind's pristine stations: n0 and n2 hand frames
// to a handler, n1 and n3 have none and discard what they accept.
var rewindNames = [4]string{"n0", "n1", "n2", "n3"}

// rewindIDs are the identifiers the fuzz program and the probe transmit:
// each station's own data ID, each station's remote-request ID, and two IDs
// only some filter banks accept.
var rewindIDs = []uint32{0x100, 0x101, 0x102, 0x103, 0x120, 0x121, 0x122, 0x123, 0x200, 0x7FF}

// rewindFilters is the pool SetFilters draws a bank from: exact matches
// (the bitmap fast path while a bank holds only these) and one mask filter
// (the general walk).
var rewindFilters = []AcceptanceFilter{
	ExactFilter(0x100), ExactFilter(0x101), ExactFilter(0x120),
	{Mask: 0x700, Code: 0x100}, ExactFilter(0x7FF),
}

// blockID is an inline filter blocking one identifier in one direction.
type blockID struct {
	dir Direction
	id  uint32
}

// Decide implements InlineFilter.
func (b blockID) Decide(dir Direction, f Frame) Verdict {
	if dir == b.dir && f.ID == b.id {
		return Block
	}
	return Grant
}

// rewindBus is one bus of FuzzBusRewind with the handler logs of n0 and n2.
type rewindBus struct {
	cfg   Config
	sched *sim.Scheduler
	bus   *Bus
	nodes [4]*Node
	logs  [4][]uint32
}

// newRewindBus builds the four-station bus and marks it pristine.
func newRewindBus(recycle bool, rate float64) *rewindBus {
	w := &rewindBus{cfg: Config{Seed: 11, ErrorRate: rate}, sched: &sim.Scheduler{}}
	w.bus = New(w.sched, w.cfg)
	w.bus.SetRecycleRogues(recycle)
	for i, name := range rewindNames {
		n := w.bus.MustAttach(name)
		if i%2 == 0 {
			n.Controller().SetFilters(ExactFilter(0x100+uint32(i)), ExactFilter(0x120+uint32(i)), ExactFilter(0x7FF))
			n.Controller().SetHandler(func(f Frame) { w.logs[i] = append(w.logs[i], f.ID) })
		} else {
			n.Controller().SetFilters(ExactFilter(0x100+uint32(i)), AcceptanceFilter{Mask: 0x7F0, Code: 0x120})
		}
		w.nodes[i] = n
	}
	w.bus.MarkPristine()
	return w
}

// step interprets one two-byte operation: the low nibble of op selects the
// operation (modulo 10), its high nibble the station or rogue, and arg
// parameterises it.
func (w *rewindBus) step(op, arg byte) {
	n := w.nodes[int(op>>4)%len(w.nodes)]
	rogue := [2]string{"r0", "r1"}[int(op>>4)%2]
	id := rewindIDs[int(arg)%len(rewindIDs)]
	switch (op & 0x0F) % 10 {
	case 0:
		_ = n.Send(MustDataFrame(id, []byte{arg}))
	case 1:
		_ = n.Send(Frame{ID: id, RTR: true, DLC: arg % 9})
	case 2:
		_, _ = w.bus.Attach(rogue)
	case 3:
		if r, ok := w.bus.Node(rogue); ok {
			_ = r.Send(MustDataFrame(id, []byte{arg, arg}))
		}
	case 4:
		w.bus.Detach(rogue)
	case 5:
		w.bus.Detach(n.Name())
	case 6:
		n.Controller().CompromiseFilters()
	case 7:
		var bank []AcceptanceFilter
		for i, f := range rewindFilters {
			if arg&(1<<i) != 0 {
				bank = append(bank, f)
			}
		}
		n.Controller().SetFilters(bank...)
	case 8:
		dir := Read
		if arg&1 != 0 {
			dir = Write
		}
		n.SetInlineFilter(blockID{dir: dir, id: rewindIDs[int(arg>>1)%len(rewindIDs)]})
	case 9:
		for i := 0; i < int(arg%16) && w.sched.Step(); i++ {
		}
	}
}

// run interprets ops two bytes at a time; a trailing odd byte is ignored.
func (w *rewindBus) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		w.step(ops[i], ops[i+1])
	}
}

// rewindNode is one attached node's observable state.
type rewindNode struct {
	Name        string
	Stats       NodeStats
	State       ErrorState
	Counters    ErrorCounters
	Compromised bool
	Log         []uint32
}

// rewindObs is everything FuzzBusRewind compares after a probe.
type rewindObs struct {
	Nodes []rewindNode
	Bus   BusStats
	Now   time.Duration
	Steps uint64
}

// probe runs the fixed workload — a rogue r0 (attached unless the program
// left it attached) and every attached station send a data frame and a
// remote request for the next station's remote-request ID — and observes
// the bus and the handler logs.
func (w *rewindBus) probe() rewindObs {
	for i := range w.logs {
		w.logs[i] = w.logs[i][:0]
	}
	r, ok := w.bus.Node("r0")
	if !ok {
		r = w.bus.MustAttach("r0")
	}
	senders := append(append([]*Node(nil), w.bus.nodes...), r)
	for i, n := range senders {
		_ = n.Send(MustDataFrame(rewindIDs[i%4], []byte{byte(i)}))
		_ = n.Send(Frame{ID: 0x120 + uint32((i+1)%4), RTR: true, DLC: 1})
	}
	w.sched.Run()
	var obs rewindObs
	for _, n := range w.bus.nodes {
		o := rewindNode{
			Name: n.Name(), Stats: n.Stats(), State: n.counters.State(), Counters: n.counters,
			Compromised: n.ctrl.compromised,
		}
		for i, s := range w.nodes {
			if s == n {
				o.Log = append(o.Log, w.logs[i]...)
			}
		}
		obs.Nodes = append(obs.Nodes, o)
	}
	obs.Bus, obs.Now, obs.Steps = w.bus.Stats(), w.sched.Now(), w.sched.Steps()
	return obs
}

// FuzzBusRewind checks the bus's one rewind path against fresh replays. A
// byte program runs on a four-station bus (with and without rogue
// recycling, at the input's error rate); at the cut the scheduler drains,
// and if the bus is Quiescent the scheduler and bus are captured, the rest
// of the program runs, both are restored, and a fixed probe must observe
// exactly what it observes on a fresh bus that ran only the prefix. Then
// Reset, from whatever state the bus is in, and the probe must observe what
// it observes on a freshly built bus.
func FuzzBusRewind(f *testing.F) {
	// Operation bytes are sel<<4 | code: 0 data send, 1 remote request,
	// 2/3/4 rogue attach/send/detach, 5 station detach, 6 compromise,
	// 7 SetFilters, 8 blocking inline filter, 9 up to 15 scheduler Steps.
	//
	// A pristine station detached and a rogue attached: as many nodes as
	// the pristine set, yet not a topology a snapshot can restore.
	f.Add([]byte{0x35, 0, 0x02, 0}, uint8(2), uint8(0))
	// A rogue attached and detached before the cut; compromise, new
	// filters, an inline block, a rogue, steps and a station detach after
	// it.
	f.Add([]byte{0x00, 1, 0x02, 0, 0x03, 2, 0x04, 0,
		0x16, 0, 0x27, 3, 0x38, 5, 0x02, 0, 0x03, 8, 0x09, 3, 0x35, 0}, uint8(4), uint8(10))
	// Contended traffic at the top error rate, cut mid-program.
	f.Add([]byte{0x00, 0, 0x10, 1, 0x20, 2, 0x30, 3, 0x01, 4, 0x09, 5, 0x00, 9, 0x11, 5}, uint8(3), uint8(15))
	// Remote requests on both sides of the cut, one of them stepped part
	// way before the cut drains it.
	f.Add([]byte{0x01, 6, 0x09, 2, 0x21, 7, 0x31, 4}, uint8(2), uint8(3))

	f.Fuzz(func(t *testing.T, prog []byte, cut, rate uint8) {
		if len(prog) > 128 {
			prog = prog[:128]
		}
		at := min(2*int(cut), len(prog)&^1)
		errRate := float64(rate%16) / 100
		for _, recycle := range []bool{false, true} {
			w := newRewindBus(recycle, errRate)
			w.run(prog[:at])
			w.sched.Run()
			if w.bus.Quiescent() {
				schedSnap := w.sched.Snapshot()
				var busSnap BusSnapshot
				w.bus.Snapshot(&busSnap)
				w.run(prog[at:])
				w.sched.RestoreFrom(schedSnap)
				w.bus.RestoreFrom(&busSnap)
				got := w.probe()

				fresh := newRewindBus(recycle, errRate)
				fresh.run(prog[:at])
				fresh.sched.Run()
				if want := fresh.probe(); !reflect.DeepEqual(got, want) {
					t.Fatalf("recycle=%v: restore at op %d diverges from a fresh prefix replay\nrestored: %+v\nfresh:    %+v", recycle, at/2, got, want)
				}
			} else {
				w.run(prog[at:])
			}
			w.sched.Reset()
			w.bus.Reset(w.cfg)
			got := w.probe()
			if want := newRewindBus(recycle, errRate).probe(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recycle=%v: Reset diverges from a fresh bus\nreset: %+v\nfresh: %+v", recycle, got, want)
			}
		}
	})
}
