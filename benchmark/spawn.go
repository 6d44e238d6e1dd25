package main

import (
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// spawn returns the shard hook a sharded sweep runs: each range becomes a
// carsim child speaking the binary wire on stdout, the subprocess carsim
// -shard-exec starts. With a tracer, each child is recorded as a
// shard.child span under parent (with a shard.spawn child span) and its
// stream is observed: time to first frame, time the parent blocked in Next,
// and bytes read. The child's peak RSS is not observable this way: the
// kernel charges a child started with vfork the parent's peak at exec.
func (b *bench) spawn(tr *tracer, parent, sweep int) shard.Spawn {
	return func(r shard.Range) (shard.Stream, error) {
		cmd := exec.Command(b.carsim,
			"-shard-range", r.String(),
			"-shard-wire", "binary",
			"-fleet", strconv.Itoa(b.w.fleet),
			"-workers", strconv.Itoa(b.w.workers),
			"-seed", strconv.FormatUint(b.seed, 10),
			"-campaign", b.w.spec,
		)
		cmd.Dir = b.root
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		child := tr.begin("shard.child", parent, sweep)
		sp := tr.begin("shard.spawn", child, sweep)
		start := time.Now()
		err = cmd.Start()
		spawned := tr.end(sp)
		if err != nil {
			tr.end(child)
			return nil, err
		}
		wait := func() error {
			// Closing the read end first unblocks a child still writing
			// after a decode error, so Wait cannot hang.
			pipe.Close()
			return cmd.Wait()
		}
		if tr == nil {
			return shard.NewWireStream(pipe, wait), nil
		}
		cr := &countingReader{r: pipe}
		return &childStream{
			Stream: shard.NewWireStream(cr, wait),
			tr:     tr, cr: cr, span: child,
			obs: childObs{sweep: sweep, spawn: spawned}, start: start,
		}, nil
	}
}

// childObs is what one traced shard child's stream showed the parent.
type childObs struct {
	sweep      int
	spawn      time.Duration // fork and exec of the child
	firstFrame time.Duration // spawn start to the first Next returning
	child      time.Duration // spawn start to the child reaped
	wait       time.Duration // total time the parent blocked in Next
	bytes      int64
	vehicles   int
}

// childStream observes a traced shard child's stream.
type childStream struct {
	shard.Stream
	tr    *tracer
	cr    *countingReader
	span  int
	obs   childObs
	start time.Time
	seen  bool
}

func (s *childStream) Next() (*engine.VehicleReport, error) {
	t := time.Now()
	v, err := s.Stream.Next()
	s.obs.wait += time.Since(t)
	if !s.seen {
		s.seen = true
		s.obs.firstFrame = time.Since(s.start)
	}
	if v != nil {
		s.obs.vehicles++
	}
	return v, err
}

func (s *childStream) Close() error {
	err := s.Stream.Close()
	s.obs.child = s.tr.end(s.span)
	s.obs.bytes = s.cr.n
	s.tr.child(s.obs)
	return err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
