// Package shard partitions a fleet sweep across multiple engine runs — and,
// through a caller-supplied spawn hook, across multiple processes — without
// perturbing a single vehicle's trajectory.
//
// The engine already guarantees that vehicle i is a pure function of
// (config, root seed, i): seeds derive from the global index, and every
// supervision coordinate (chaos fault rolls, verify sampling) keys on it
// too. Sharding therefore only has to preserve the index space. A shard is
// a contiguous range [Start, Start+Count) of global vehicle indices run as
// an independent engine sweep with Config.IndexOffset = Start. Each range
// folds into an engine.MergeFold of its own as its vehicles arrive, and the
// driver combines the folds once every range has finished. The fold does
// not depend on order (its utilisation sum is exact), so the merged report
// is byte-identical to the unsharded oracle whichever range ends first.
//
// Vehicles travel as runs from the engine to the fold: a run is a vehicle
// report standing for itself and the vehicles after it that differ from
// it only in index (engine.Aggregate). A fully stamped range is two
// runs, its first vehicle and the rest, and the driver folds each run in
// one step (engine.MergeFold.FoldRun). An in-process shard is an
// engine.Aggregate over its range whose runs fold straight into its fold
// as they are emitted. A spawned shard's outcome arrives as a Stream over
// the binary frame protocol in the nested wire package — compact,
// CRC-guarded, one frame per run, streamed as the child's vehicles
// complete — and the driver folds it as it is decoded, so the parent never
// buffers a spawned shard's report set. Aggregate keeps no per-vehicle
// section at all; Run lists every vehicle of each run through
// engine.AppendRun, the helper engine.Run lists its own runs with. The
// unsharded engine.Run is the differential oracle every shard layout,
// transport and parallelism level is tested against.
//
// In-process shards run sequentially — each shard's engine sweep is itself
// parallel across Config.Workers, and on a single machine stacking two
// layers of parallelism only adds scheduler noise. The Spawn hook is where
// real scale-out happens: carsim -shards N -shard-exec re-invokes itself
// once per range and streams each child's stdout, Config.Parallelism keeps
// up to that many children running at once, and the same hook shape would
// drive genuinely remote shard hosts. See DESIGN.md §13–14.
package shard

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

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
// shard, reaps the child). The driver stops reading a stream once it has
// carried more vehicles than its range holds, or a vehicle out of its
// place, and closes it without reading the trailer.
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
// vehicles v.Index … v.Index+n-1, which differ from v only in Index
// (wire.Reader.NextRun).
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

// merge is one range's fold step: every run of range r, from an
// in-process shard's emitter or a spawned shard's stream, folds through
// add into the range's own fold. It enforces the range contract — each
// run heads at the range's next index, and only the first r.Count
// vehicles fold — and, for Run, lists the folded vehicles into the
// range's window of the listing.
type merge struct {
	r    Range
	fold *engine.MergeFold
	// vehicles is the range's window of Run's listing (nil for Aggregate):
	// its folded vehicles, runs expanded, in a slice of capacity r.Count.
	vehicles []engine.VehicleReport
	// carried counts the vehicles r's stream has carried so far (carry).
	carried int
	// misplaced is set once a run did not head at the range's next
	// index; the range folds nothing after it.
	misplaced bool
	// errs records the range's failures as they surface.
	errs []error
}

// fail records a failure against the range.
func (m *merge) fail(format string, a ...any) {
	m.errs = append(m.errs, fmt.Errorf("shard %s: "+format, append([]any{m.r}, a...)...))
}

// carry adds a run of n vehicles to a count of vehicles carried,
// saturating at the largest int rather than wrapping.
func carry(carried, n int) int {
	if n > math.MaxInt-carried {
		return math.MaxInt
	}
	return carried + n
}

// add folds the run of n vehicles v heads. A run that carries the range's
// stream past r.Count folds only its in-range prefix; the overcount is
// counted, not iterated, so a run frame claiming any count costs O(1)
// beyond the vehicles the range holds. A run that does not head at the
// range's next index folds nothing and is recorded.
func (m *merge) add(v *engine.VehicleReport, n int) {
	if m.misplaced {
		return
	}
	if want := m.r.Start + m.carried; v.Index != want {
		m.misplaced = true
		m.fail("stream carried vehicle %d where %d was due", v.Index, want)
		return
	}
	if k := min(n, m.r.Count-m.carried); k > 0 {
		m.fold.FoldRun(v, k)
		if m.vehicles != nil {
			m.vehicles = engine.AppendRun(m.vehicles, v, k)
		}
	}
	m.carried = carry(m.carried, n)
}

// read spawns the range and folds its stream's runs as they are decoded.
// Reading stops once the stream has carried a vehicle out of place or more
// than r.Count vehicles: the run that overran still folds its in-range
// prefix, and the rest of the stream, trailer included, is never read —
// a stream read vehicle by vehicle (runsOf) would otherwise expand a run
// frame claiming 2^40 vehicles one at a time. A stream that ends must
// echo r in its trailer, and a trailer error text is recorded like a
// sweep failure. Every anomaly is recorded, never fatal: the other ranges
// still merge.
func (m *merge) read(spawn Spawn) {
	st, err := spawn(m.r)
	if err != nil {
		m.fail("%w", err)
		return
	}
	next := runsOf(st)
	for !m.misplaced && m.carried <= m.r.Count {
		v, n, err := next()
		if err == io.EOF {
			m.trailer(st)
			break
		}
		if err != nil {
			m.fail("%w", err)
			break
		}
		m.add(v, n)
	}
	if m.carried > m.r.Count {
		m.fail("stream carried %d vehicles", m.carried)
	}
	if err := st.Close(); err != nil {
		m.fail("close: %w", err)
	}
}

// trailer checks an ended stream's trailer: the echo and the error text.
func (m *merge) trailer(st Stream) {
	tr, errText, err := st.Trailer()
	if err != nil {
		m.fail("trailer: %w", err)
		return
	}
	if tr != m.r {
		m.fail("stream covers %s", tr)
	}
	if errText != "" {
		m.fail("%s", errText)
	}
}

// RunRangeWire executes one shard in this process and emits the binary
// wire stream to out as vehicles complete — the shard child's streaming
// emit loop. Each run engine.Aggregate emits goes out as one frame, in
// global index order, so a fully stamped range is two vehicle frames; the
// trailer carries the range echo and the sweep's error text, so an
// unrecoverable shard still ships its partial vehicles first (the
// partial-report contract engine.Run keeps). The returned error reports
// a range outside the whole fleet cfg describes, before any byte is
// written, and transport failures — a sweep error travels in the trailer.
func RunRangeWire(cfg engine.Config, r Range, out io.Writer) error {
	if fleet := max(cfg.Fleet, 1); r.Start < 0 || r.Count < 1 || r.Count > fleet-r.Start {
		return fmt.Errorf("shard %s: range outside the fleet of %d vehicles", r, fleet)
	}
	w := wire.NewWriter(out)
	var werr error
	emit := func(v *engine.VehicleReport, n int) {
		if werr == nil {
			werr = w.WriteRun(v, n)
		}
	}
	_, err := engine.Aggregate(rangeConfig(cfg, r), emit)
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
	// (default 1: shard i+1 spawns once shard i's stream has closed); a
	// shard that finishes early waits for no other. Ignored without Spawn:
	// in-process shards are already parallel across Engine.Workers.
	Parallelism int
}

// Run executes the sharded sweep and merges shard outcomes
// deterministically. The merged report is byte-identical to the unsharded
// engine.Run for every shard count and parallelism level, with or without
// the spawn hook, vehicle listing included: the per-vehicle reports are
// pure functions of global indices, the fold is the engine's own and does
// not depend on order, and the listing keeps range order. Like engine.Run,
// a failing shard — a sweep error, a spawn error, a corrupt stream, a
// sweep error in the trailer — is recorded and the remaining ranges still
// merge: Run returns the merged partial report alongside the error,
// joined in range order.
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
	// Ranges list into disjoint windows of one Fleet-sized listing.
	var vehicles []engine.VehicleReport
	if list {
		vehicles = make([]engine.VehicleReport, 0, ec.Fleet)
	}
	ranges := Ranges(ec.Fleet, cfg.Shards)
	merges := make([]*merge, len(ranges))
	for i, r := range ranges {
		fold, err := engine.NewMergeFold(ec)
		if err != nil {
			return nil, err
		}
		merges[i] = &merge{r: r, fold: fold}
		if list {
			merges[i].vehicles = vehicles[r.Start : r.Start : r.Start+r.Count]
		}
	}
	// In-process ranges run one after another, each folding its runs as
	// engine.Aggregate emits them; a sweep error is recorded against the
	// range while its completed vehicles still merge, as a spawned shard's
	// trailer carries it. Spawned ranges are read and folded on goroutines
	// of their own, at most Parallelism at once: at 1, range i+1 spawns
	// after range i's stream has closed.
	sem := make(chan struct{}, max(cfg.Parallelism, 1))
	var wg sync.WaitGroup
	for _, m := range merges {
		if cfg.Spawn == nil {
			if _, err := engine.Aggregate(rangeConfig(ec, m.r), m.add); err != nil {
				m.fail("%w", err)
			}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			m.read(cfg.Spawn)
		}()
	}
	wg.Wait()
	fold, listed := merges[0].fold, vehicles[:0]
	var errs []error
	for i, m := range merges {
		if i > 0 {
			fold.Combine(m.fold)
		}
		// A range's window is in place unless a range before it fell short.
		if len(listed) == m.r.Start {
			listed = listed[:m.r.Start+len(m.vehicles)]
		} else {
			listed = append(listed, m.vehicles...)
		}
		errs = append(errs, m.errs...)
	}
	fr := fold.Finish()
	fr.Vehicles = listed
	return fr, errors.Join(errs...)
}
