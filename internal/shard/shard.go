// Package shard partitions a fleet sweep across multiple engine runs — and,
// through a caller-supplied spawn hook, across multiple processes — without
// perturbing a single vehicle's trajectory.
//
// The engine already guarantees that vehicle i is a pure function of
// (config, root seed, i): seeds derive from the global index, and every
// supervision coordinate (chaos fault rolls, verify sampling) keys on it
// too. Sharding therefore only has to preserve the index space. A shard is
// a contiguous range [Start, Start+Count) of global vehicle indices run as
// an independent engine sweep with Config.IndexOffset = Start; the merge
// folds shard vehicle reports in range order through engine.MergeFold —
// the same fold the unsharded run applies, in the same order, so the
// merged report is byte-identical to the unsharded oracle (float summation
// order included, Health ledgers summed per class).
//
// Vehicles travel as runs from the engine to the fold: a run is a vehicle
// report standing for itself and the vehicles after it that differ from
// it only in VIN and seed (engine.Aggregate). A fully stamped range is two
// runs, its first vehicle and the rest, and the driver folds each run in
// one step (engine.MergeFold.FoldRun). An in-process shard is an
// engine.Aggregate over its range whose runs fold straight into the merge
// as they are emitted. A spawned shard's outcome arrives as a Stream over
// the binary frame protocol in the nested wire package — compact,
// CRC-guarded, one frame per run, streamed as the child's vehicles
// complete — and the driver folds it as it is decoded, so the parent never
// buffers a spawned shard's report set. Aggregate keeps no per-vehicle
// section at all; Run lists every vehicle by expanding the runs. The
// unsharded engine.Run is the differential oracle every shard layout,
// transport and parallelism level is tested against.
//
// In-process shards run sequentially — each shard's engine sweep is itself
// parallel across Config.Workers, and on a single machine stacking two
// layers of parallelism only adds scheduler noise. The Spawn hook is where
// real scale-out happens: carsim -shards N -shard-exec re-invokes itself
// once per range and streams each child's stdout, Config.Parallelism keeps
// up to that many children running at once while the merge still consumes
// shards strictly in range order (a bounded per-shard reorder window), and
// the same hook shape would drive genuinely remote shard hosts. See
// DESIGN.md §13–14.
package shard

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/shard/wire"
)

// Range is one shard's slice of the global vehicle index space.
type Range struct {
	// Start is the first global vehicle index of the shard.
	Start int
	// Count is the number of vehicles the shard simulates.
	Count int
}

// String renders the range as "start:count" (the format carsim's hidden
// -shard-range flag accepts).
func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Start, r.Count) }

// ParseRange parses the "start:count" rendering of a Range. Exactly two
// non-empty decimal digit runs joined by one colon — no sign, no spaces,
// no trailing bytes (fmt.Sscanf's leniency once let "0:5x" parse as 0:5,
// which would have a shard silently simulating a range the parent never
// asked for).
func ParseRange(s string) (Range, error) {
	start, count, ok := strings.Cut(s, ":")
	if !ok || !allDigits(start) || !allDigits(count) {
		return Range{}, fmt.Errorf("shard: bad range %q (want start:count)", s)
	}
	var r Range
	var err error
	if r.Start, err = strconv.Atoi(start); err != nil {
		return Range{}, fmt.Errorf("shard: bad range %q: %w", s, err)
	}
	if r.Count, err = strconv.Atoi(count); err != nil {
		return Range{}, fmt.Errorf("shard: bad range %q: %w", s, err)
	}
	if r.Count <= 0 {
		return Range{}, fmt.Errorf("shard: bad range %q (count must be > 0)", s)
	}
	return r, nil
}

// allDigits reports whether s is one or more ASCII decimal digits.
func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Ranges partitions total vehicles into n contiguous ranges covering
// [0, total) exactly once. Sizes differ by at most one (the remainder goes
// to the earliest shards), so the layout is a pure function of (total, n).
// n is clamped to [1, total]; empty shards never exist.
func Ranges(total, n int) []Range {
	if total <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	base, rem := total/n, total%n
	out := make([]Range, n)
	start := 0
	for i := range out {
		count := base
		if i < rem {
			count++
		}
		out[i] = Range{Start: start, Count: count}
		start += count
	}
	return out
}

// Stream is one spawned shard's outcome consumed incrementally: Next
// yields the shard's vehicle reports in global index order and io.EOF when
// the shard is done; Trailer (valid only after io.EOF) returns the range
// echo the driver asserts against and the shard's sweep error text (""
// on success); Close releases transport resources (for a subprocess
// shard, reaps the child). A report Next returns must stay unchanged after
// later calls: the fan-out parks up to Window of them by pointer.
//
// The stream NewWireStream returns also yields whole runs, and the driver
// moves those instead of single vehicles (runStream). Any other Stream —
// a wrapper that embeds one, too, since the interface does not promote
// the run method — is read vehicle by vehicle, each a run of one.
type Stream interface {
	Next() (*engine.VehicleReport, error)
	Trailer() (r Range, errText string, err error)
	Close() error
}

// runStream is a Stream that yields runs: v stands for the n >= 1
// vehicles v.Index … v.Index+n-1, which differ from v only in VIN and
// seed (wire.Reader.NextRun).
type runStream interface {
	NextRun() (v *engine.VehicleReport, n int, err error)
}

// runsOf returns st's run reader: its own NextRun, or Next as runs of one.
func runsOf(st Stream) func() (*engine.VehicleReport, int, error) {
	if rs, ok := st.(runStream); ok {
		return rs.NextRun
	}
	return func() (*engine.VehicleReport, int, error) {
		v, err := st.Next()
		return v, 1, err
	}
}

// NewWireStream wraps a binary wire stream (a shard child's stdout pipe)
// as a Stream. closeFn, when non-nil, runs on Close — the subprocess hook
// reaps the child there.
func NewWireStream(in io.Reader, closeFn func() error) Stream {
	return &wireStream{r: wire.NewReader(in), closeFn: closeFn}
}

type wireStream struct {
	r       *wire.Reader
	closeFn func() error
}

func (s *wireStream) Next() (*engine.VehicleReport, error) { return s.r.Next() }

func (s *wireStream) NextRun() (*engine.VehicleReport, int, error) { return s.r.NextRun() }

func (s *wireStream) Trailer() (Range, string, error) {
	t, err := s.r.Trailer()
	if err != nil {
		return Range{}, "", err
	}
	return Range{Start: t.Start, Count: t.Count}, t.Err, nil
}

func (s *wireStream) Close() error {
	if s.closeFn != nil {
		return s.closeFn()
	}
	return nil
}

// rangeConfig derives range r's engine configuration from the WHOLE-fleet
// cfg (total Fleet, zero IndexOffset): the shard simulates exactly the
// global vehicles in r.
func rangeConfig(cfg engine.Config, r Range) engine.Config {
	cfg.Fleet = r.Count
	cfg.IndexOffset = r.Start
	return cfg
}

// merge is the driver's one fold step: every run, from an in-process
// shard's emitter or a spawned shard's stream, folds through add, in range
// order. It enforces the range contract — only the first r.Count vehicles
// a range's stream carries fold — and, for Run, lists the folded vehicles.
type merge struct {
	fold *engine.MergeFold
	root uint64 // Groups[0].RootSeed: a run's seeds derive from it
	list bool
	// vehicles is Run's listing: every folded vehicle, its runs expanded.
	vehicles []engine.VehicleReport
	r        Range
	// carried counts the vehicles r's stream has carried so far; it
	// saturates at the largest int rather than wrap.
	carried int
}

// start begins folding range r.
func (m *merge) start(r Range) { m.r, m.carried = r, 0 }

// add folds the run of n vehicles v heads. A run that carries the range's
// stream past r.Count folds only its in-range prefix; the overcount is
// counted, not iterated, so a run frame claiming any count costs O(1)
// beyond the vehicles the range holds.
func (m *merge) add(v *engine.VehicleReport, n int) {
	if k := min(n, m.r.Count-m.carried); k > 0 {
		m.fold.FoldRun(v, k)
		if m.list {
			m.vehicles = append(m.vehicles, *v)
			for i := 1; i < k; i++ {
				m.vehicles = append(m.vehicles, v.Member(m.root, v.Index+i))
			}
		}
	}
	if n > math.MaxInt-m.carried {
		m.carried = math.MaxInt
	} else {
		m.carried += n
	}
}

// runLocal executes one shard in this process and folds its runs straight
// into the merge as they are emitted. A sweep error is recorded against
// the range while the vehicles that completed still merge — the
// partial-report contract engine.Run keeps, and a spawned shard's trailer
// carries.
func runLocal(m *merge, cfg engine.Config, r Range) error {
	m.start(r)
	if _, err := engine.Aggregate(rangeConfig(cfg, r), m.add); err != nil {
		return fmt.Errorf("shard %s: %w", r, err)
	}
	return nil
}

// RunRangeWire executes one shard in this process and emits the binary
// wire stream to out as vehicles complete — the shard child's streaming
// emit loop. Each run engine.Aggregate emits goes out as one frame, in
// global index order, so a fully stamped range is two vehicle frames; the
// trailer carries the range echo and the sweep's error text, so an
// unrecoverable shard still ships its partial vehicles first (the
// partial-report contract engine.Run keeps). The returned error reports
// transport failures only — a sweep error travels in the trailer.
func RunRangeWire(cfg engine.Config, r Range, out io.Writer) error {
	sub := rangeConfig(cfg, r)
	w := wire.NewWriter(out)
	var werr error
	emit := func(v *engine.VehicleReport, n int) {
		if werr == nil {
			werr = w.WriteRun(v, n, sub.Groups[0].RootSeed) // Aggregate emits only with Groups set
		}
	}
	_, err := engine.Aggregate(sub, emit)
	if werr != nil {
		return fmt.Errorf("shard %s: wire write: %w", r, werr)
	}
	t := wire.Trailer{Start: r.Start, Count: r.Count}
	if err != nil {
		t.Err = err.Error()
	}
	if err := w.WriteTrailer(t); err != nil {
		return fmt.Errorf("shard %s: wire trailer: %w", r, err)
	}
	return nil
}

// Spawn runs one shard range somewhere else — typically a subprocess
// re-invoking the same binary with a -shard-range flag — and returns a
// stream over its vehicle reports. The hook owns process plumbing (argv,
// pipes, exit codes); the driver only consumes the stream. A Spawn error
// is recorded like a shard sweep failure: the driver keeps merging the
// remaining ranges and returns the partial report alongside the joined
// error.
type Spawn func(r Range) (Stream, error)

// defaultWindow bounds each in-flight shard's decoded-but-unmerged runs
// under concurrent fan-out (Config.Window).
const defaultWindow = 256

// Config parameterises a sharded sweep.
type Config struct {
	// Engine is the WHOLE-fleet run configuration (total Fleet, the
	// unsharded Workers value, zero IndexOffset). Each shard derives its
	// sub-config from it; the merged report renders under it.
	Engine engine.Config
	// Shards is the number of contiguous ranges (clamped to [1, Fleet]).
	Shards int
	// Spawn, when non-nil, runs each range out of process; nil runs the
	// ranges in this process, sequentially.
	Spawn Spawn
	// Parallelism bounds how many spawned shards run concurrently
	// (default 1: shard i+1 spawns once shard i has merged). The merge
	// still consumes shards strictly in range order — a shard that
	// finishes early parks at most Window runs until its turn. Ignored
	// without Spawn: in-process shards are already parallel across
	// Engine.Workers.
	Parallelism int
	// Window bounds each in-flight shard's decoded-but-unmerged runs under
	// concurrent fan-out (default 256). A run is one decoded report
	// standing for any number of vehicles — a stamped child's whole range
	// is two — and a Stream without runs parks one vehicle per run. The
	// slots hold the decoded reports by pointer, so total parent-side
	// reorder memory is ≤ Parallelism × Window decoded reports beyond the
	// merged report itself — each a report and its VIN when its stream
	// repeats the previous frame's matrix, whose one decoded copy the
	// stream's reports share.
	Window int
}

// Run executes the sharded sweep and merges shard outcomes
// deterministically in range order. The merged report is byte-identical
// to the unsharded engine.Run for every shard count and parallelism level,
// with or without the spawn hook, vehicle listing included: the
// per-vehicle reports are pure functions of global indices, and the merge
// is the engine's own fold over the same vehicle order. Like engine.Run, a
// failing shard — a sweep error, a spawn error, a corrupt stream, a sweep
// error in the trailer — is recorded and the remaining ranges still merge:
// Run returns the merged partial report alongside the joined error.
func Run(cfg Config) (*engine.FleetReport, error) { return sweep(cfg, true) }

// Aggregate runs exactly the sweep Run runs and returns the same report
// without its per-vehicle section: FleetReport.Vehicles is nil, and no
// vehicle report outlives the run it came in. It is the entry point for
// callers that read only the fleet aggregates: sharded campaign sweeps.
func Aggregate(cfg Config) (*engine.FleetReport, error) { return sweep(cfg, false) }

// sweep is Run when list is set, Aggregate otherwise.
func sweep(cfg Config, list bool) (*engine.FleetReport, error) {
	ec := cfg.Engine
	if ec.Fleet <= 0 {
		ec.Fleet = 1
	}
	if ec.IndexOffset != 0 {
		return nil, errors.New("shard: Engine.IndexOffset must be zero (the driver owns the index space)")
	}
	fold, err := engine.NewMergeFold(ec)
	if err != nil {
		return nil, err
	}
	m := &merge{fold: fold, root: ec.Groups[0].RootSeed, list: list}
	if list {
		m.vehicles = make([]engine.VehicleReport, 0, ec.Fleet)
	}
	ranges := Ranges(ec.Fleet, cfg.Shards)
	var errs []error
	if cfg.Spawn != nil {
		errs = runParallel(ranges, cfg, m)
	} else {
		for _, r := range ranges {
			errs = append(errs, runLocal(m, ec, r)) // errors.Join drops nil
		}
	}
	fr := fold.Finish()
	fr.Vehicles = m.vehicles
	return fr, errors.Join(errs...)
}

// drain folds one slot's runs into the merge, enforcing the range
// contract: at most r.Count vehicles are folded, the trailer must echo r,
// and a trailer error text is recorded like a sweep failure. Every
// anomaly is recorded, never fatal — the caller keeps merging other
// shards.
func (m *merge) drain(s *slot, r Range) []error {
	m.start(r)
	for run := range s.ch {
		m.add(run.v, run.n)
	}
	var errs []error
	switch {
	case s.streamErr != nil:
		errs = append(errs, fmt.Errorf("shard %s: %w", r, s.streamErr))
	default:
		if m.carried > r.Count {
			errs = append(errs, fmt.Errorf("shard %s: stream carried %d vehicles", r, m.carried))
		}
		if s.trailerEr != nil {
			errs = append(errs, fmt.Errorf("shard %s: trailer: %w", r, s.trailerEr))
			break
		}
		if s.trailer != r {
			errs = append(errs, fmt.Errorf("shard %s: stream covers %s", r, s.trailer))
		}
		if s.errText != "" {
			errs = append(errs, fmt.Errorf("shard %s: %s", r, s.errText))
		}
	}
	if s.closeErr != nil {
		errs = append(errs, fmt.Errorf("shard %s: close: %w", r, s.closeErr))
	}
	return errs
}

// run is one decoded run in a slot: v and the n-1 vehicles after it.
type run struct {
	v *engine.VehicleReport
	n int
}

// slot is one range's reorder buffer under concurrent fan-out: the
// producer (a fan-out worker) pumps the shard's runs into ch and records
// the trailer; the merger drains slots strictly in range order. All
// non-channel fields are written before close(ch) and read only after the
// drain loop observes the close, so the close is the happens-before edge.
type slot struct {
	ch        chan run
	streamErr error // spawn or stream failure; surfaces after buffered runs
	trailer   Range
	errText   string
	trailerEr error
	closeErr  error
}

// runParallel fans spawned shards out across a bounded worker group while
// the merge consumes them strictly in range order. Memory stays bounded:
// a semaphore released only when the merger finishes a shard caps the
// claimed-but-unmerged shards at the parallelism level, and each of those
// parks at most Window decoded runs in its slot channel — a shard that
// outpaces the merge cursor blocks on its full window, it does not
// buffer. Claims come off an atomic cursor, so the outstanding set is
// always the contiguous window just ahead of the merge cursor and the
// shard the merger waits on always has a running producer (no deadlock).
// At parallelism 1 this is the sequential layout: one producer, which
// spawns shard i+1 only after the merger has finished shard i.
func runParallel(ranges []Range, cfg Config, m *merge) []error {
	par := min(max(cfg.Parallelism, 1), len(ranges))
	window := cfg.Window
	if window <= 0 {
		window = defaultWindow
	}
	slots := make([]*slot, len(ranges))
	for i, r := range ranges {
		buf := window
		if r.Count < buf {
			buf = r.Count
		}
		slots[i] = &slot{ch: make(chan run, buf)}
	}
	sem := make(chan struct{}, par)
	var next atomic.Int64
	for w := 0; w < par; w++ {
		go func() {
			for {
				sem <- struct{}{} // merger receives once the shard is merged
				i := int(next.Add(1)) - 1
				if i >= len(ranges) {
					<-sem // return the unused token
					return
				}
				produce(slots[i], ranges[i], cfg.Spawn)
			}
		}()
	}
	var errs []error
	for i, r := range ranges {
		errs = append(errs, m.drain(slots[i], r)...)
		<-sem
	}
	return errs
}

// produce runs one spawned shard and pumps its stream's runs into the
// slot.
func produce(s *slot, r Range, spawn Spawn) {
	defer close(s.ch)
	st, err := spawn(r)
	if err != nil {
		s.streamErr = err
		return
	}
	next := runsOf(st)
	for {
		v, n, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.streamErr = err
			s.closeErr = st.Close()
			return
		}
		s.ch <- run{v, n}
	}
	s.trailer, s.errText, s.trailerEr = st.Trailer()
	s.closeErr = st.Close()
}
