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
// An in-process shard is an engine.Aggregate over its range whose vehicles
// fold straight into the merge as they complete (engine.Config.OnVehicle). A
// spawned shard's outcome arrives as a Stream over the binary frame
// protocol in the nested wire package — compact, CRC-guarded, streamed
// frame by frame as the child's vehicles complete — and the driver folds
// it as it is decoded, so the parent never buffers a spawned shard's
// report set. A stamped child's vehicles all carry its first vehicle's
// attack matrix; the wire sends that matrix once per stream and the
// decoded vehicles share one read-only copy of it, as the vehicles of an
// in-process run share the stamp's. The unsharded engine.Run is the
// differential oracle every shard layout, transport and parallelism level
// is tested against.
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
// shard, reaps the child). The binary wire stream implements it, and the
// concurrent fan-out's reorder slots re-expose it, so the driver validates
// sequential and concurrent shards identically. A report Next returns
// must stay unchanged after later calls: the fan-out parks up to Window of
// them by pointer.
type Stream interface {
	Next() (*engine.VehicleReport, error)
	Trailer() (r Range, errText string, err error)
	Close() error
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

// runLocal executes one shard in this process and folds its vehicles
// straight into the merge as they complete. A sweep error is recorded
// against the range while the vehicles that completed still merge — the
// partial-report contract engine.Run keeps, and a spawned shard's trailer
// carries.
func runLocal(fold *engine.MergeFold, cfg engine.Config, r Range) error {
	sub := rangeConfig(cfg, r)
	sub.OnVehicle = func(v *engine.VehicleReport) { fold.Add(*v) }
	if _, err := engine.Aggregate(sub); err != nil {
		return fmt.Errorf("shard %s: %w", r, err)
	}
	return nil
}

// RunRangeWire executes one shard in this process and emits the binary
// wire stream to out as vehicles complete — the shard child's streaming
// emit loop. Frames are written through engine.Config.OnVehicle in global
// index order; the trailer carries the range echo and the sweep's error
// text, so an unrecoverable shard still ships its partial vehicles first
// (the partial-report contract engine.Run keeps). The returned error
// reports transport failures only — a sweep error travels in the trailer.
func RunRangeWire(cfg engine.Config, r Range, out io.Writer) error {
	sub := rangeConfig(cfg, r)
	w := wire.NewWriter(out)
	var werr error
	sub.OnVehicle = func(v *engine.VehicleReport) {
		if werr == nil {
			werr = w.WriteVehicle(v)
		}
	}
	_, err := engine.Aggregate(sub)
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

// defaultWindow bounds each in-flight shard's decoded-but-unmerged
// vehicle reports under concurrent fan-out (Config.Window).
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
	// finishes early parks at most Window vehicle reports until its turn.
	// Ignored without Spawn: in-process shards are already parallel across
	// Engine.Workers.
	Parallelism int
	// Window bounds each in-flight shard's decoded-but-unmerged vehicle
	// reports under concurrent fan-out (default 256). The slots hold the
	// decoded reports by pointer, so total parent-side reorder memory is
	// ≤ Parallelism × Window decoded reports beyond the merged report
	// itself — each a report and its VIN when its stream repeats the
	// previous vehicle's matrix, whose one decoded copy the stream's
	// vehicles share.
	Window int
}

// Run executes the sharded sweep and merges shard outcomes
// deterministically in range order. The merged report is byte-identical
// to the unsharded engine.Run for every shard count and parallelism level,
// with or without the spawn hook: the per-vehicle reports are pure
// functions of global indices, and the merge is the engine's own fold over
// the same vehicle order. Like engine.Run, a failing shard — a sweep
// error, a spawn error, a corrupt stream, a sweep error in the trailer —
// is recorded and the remaining ranges still merge: Run returns the merged
// partial report alongside the joined error.
func Run(cfg Config) (*engine.FleetReport, error) {
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
	ranges := Ranges(ec.Fleet, cfg.Shards)
	var errs []error
	if cfg.Spawn != nil {
		errs = runParallel(ranges, cfg, fold)
	} else {
		for _, r := range ranges {
			errs = append(errs, runLocal(fold, ec, r)) // errors.Join drops nil
		}
	}
	return fold.Finish(), errors.Join(errs...)
}

// drainShard folds one shard stream into the merge, enforcing the range
// contract: at most r.Count vehicles are folded, the trailer must echo r,
// and a trailer error text is recorded like a sweep failure. Every
// anomaly is recorded, never fatal — the caller keeps merging other
// shards.
func drainShard(fold *engine.MergeFold, st Stream, r Range) []error {
	var errs []error
	n := 0
	for {
		v, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %s: %w", r, err))
			if cerr := st.Close(); cerr != nil {
				errs = append(errs, fmt.Errorf("shard %s: close: %w", r, cerr))
			}
			return errs
		}
		if n < r.Count {
			fold.Add(*v)
		}
		n++
	}
	if n > r.Count {
		errs = append(errs, fmt.Errorf("shard %s: stream carried %d vehicles", r, n))
	}
	tr, errText, terr := st.Trailer()
	if terr != nil {
		errs = append(errs, fmt.Errorf("shard %s: trailer: %w", r, terr))
	} else {
		if tr != r {
			errs = append(errs, fmt.Errorf("shard %s: stream covers %s", r, tr))
		}
		if errText != "" {
			errs = append(errs, fmt.Errorf("shard %s: %s", r, errText))
		}
	}
	if cerr := st.Close(); cerr != nil {
		errs = append(errs, fmt.Errorf("shard %s: close: %w", r, cerr))
	}
	return errs
}

// slot is one range's reorder buffer under concurrent fan-out: the
// producer (a fan-out worker) pumps the shard's stream into ch and
// records the trailer; the merger drains slots strictly in range order.
// All non-channel fields are written before close(ch) and read only after
// the drain loop observes the close, so the close is the happens-before
// edge.
type slot struct {
	ch        chan *engine.VehicleReport
	streamErr error // spawn or stream failure; surfaces after buffered vehicles
	trailer   Range
	errText   string
	trailerEr error
	closeErr  error
}

// chanStream adapts a slot back to the Stream interface so the merger
// reuses drainShard's validation verbatim.
type chanStream struct{ s *slot }

func (c *chanStream) Next() (*engine.VehicleReport, error) {
	v, ok := <-c.s.ch
	if !ok {
		if c.s.streamErr != nil {
			return nil, c.s.streamErr
		}
		return nil, io.EOF
	}
	return v, nil
}

func (c *chanStream) Trailer() (Range, string, error) {
	return c.s.trailer, c.s.errText, c.s.trailerEr
}

func (c *chanStream) Close() error { return c.s.closeErr }

// runParallel fans spawned shards out across a bounded worker group while
// the merge consumes them strictly in range order. Memory stays bounded:
// a semaphore released only when the merger finishes a shard caps the
// claimed-but-unmerged shards at the parallelism level, and each of those
// parks at most Window decoded reports in its slot channel — a shard that
// outpaces the merge cursor blocks on its full window, it does not
// buffer. Claims come off an atomic cursor, so the outstanding set is
// always the contiguous window just ahead of the merge cursor and the
// shard the merger waits on always has a running producer (no deadlock).
// At parallelism 1 this is the sequential layout: one producer, which
// spawns shard i+1 only after the merger has finished shard i.
func runParallel(ranges []Range, cfg Config, fold *engine.MergeFold) []error {
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
		slots[i] = &slot{ch: make(chan *engine.VehicleReport, buf)}
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
		errs = append(errs, drainShard(fold, &chanStream{s: slots[i]}, r)...)
		<-sem
	}
	return errs
}

// produce runs one spawned shard and pumps its stream into the slot.
func produce(s *slot, r Range, spawn Spawn) {
	defer close(s.ch)
	st, err := spawn(r)
	if err != nil {
		s.streamErr = err
		return
	}
	for {
		v, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.streamErr = err
			s.closeErr = st.Close()
			return
		}
		s.ch <- v
	}
	s.trailer, s.errText, s.trailerEr = st.Trailer()
	s.closeErr = st.Close()
}
