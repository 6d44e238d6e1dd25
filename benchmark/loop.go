package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// overrun is how far past its deadline a timed loop may run to reach its
// minimum sweep count before the run fails.
const overrun = 60 * time.Second

// timed is the outcome of a closed-loop run.
type timed struct {
	samples   []float64 // ms per correct sweep (sweep + render)
	cells     int       // report cells of correct sweeps
	attempted int
	failed    int
	wall      time.Duration
}

// timedLoop runs the workload's clients closed-loop for d: each client
// issues its next sweep as soon as its previous one completes and is
// checked. Clients keep going past d until minSweeps sweeps have been
// attempted, for at most overrun longer.
func (b *bench) timedLoop(d time.Duration, minSweeps int) timed {
	start := time.Now()
	deadline, limit := start.Add(d), start.Add(d+overrun)
	var attempts atomic.Int64
	var mu sync.Mutex
	var out timed
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine timed
			for {
				now := time.Now()
				if now.After(limit) || (now.After(deadline) && attempts.Load() >= int64(minSweeps)) {
					break
				}
				attempts.Add(1)
				t0 := time.Now()
				rep, view, err := b.sweep(b.cfg)
				dt := time.Since(t0)
				mine.attempted++
				if err := b.check(rep, view, err); err != nil {
					mine.failed++
					fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
					continue
				}
				mine.samples = append(mine.samples, ms(dt))
				mine.cells += rep.Cells
			}
			mu.Lock()
			defer mu.Unlock()
			out.samples = append(out.samples, mine.samples...)
			out.cells += mine.cells
			out.attempted += mine.attempted
			out.failed += mine.failed
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// maxIterations caps a traced run, whose spans are all kept in memory: a
// one-vehicle iteration records ~560 of them in a few milliseconds.
const maxIterations = 200

// traceLoop runs, for d or maxIterations, iterations of one untraced sweep,
// one traced sweep and the traced layer decomposition of that sweep. The two sweeps swap
// order every iteration so that neither always follows the decomposition.
// It returns the per-layer metrics: the median over iterations of each
// value, the tracing overhead, and the allocation and GC cost of the
// untraced sweeps.
func (b *bench) traceLoop(tr *tracer, d time.Duration) (map[string]float64, int, int, error) {
	lp, err := b.layerPlan()
	if err != nil {
		return nil, 0, 0, err
	}
	per := make(map[string][]float64)
	var untraced []float64
	attempted, failed := 0, 0
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	plain := func(root, it int) {
		sp := tr.begin("untraced.sweep", root, it)
		metrics.Read(samples)
		alloc0, gc0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
		t0 := time.Now()
		rep, view, err := b.sweep(b.cfg)
		dt := time.Since(t0)
		metrics.Read(samples)
		tr.end(sp)
		attempted++
		if err := b.check(rep, view, err); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
			return
		}
		untraced = append(untraced, ms(dt))
		per["engine.alloc_bytes_per_vehicle"] = append(per["engine.alloc_bytes_per_vehicle"],
			float64(samples[0].Value.Uint64()-alloc0)/float64(b.w.fleet))
		per["gc.cycles_per_sweep"] = append(per["gc.cycles_per_sweep"], float64(samples[1].Value.Uint64()-gc0))
	}
	deadline := time.Now().Add(d)
	for it := 1; it == 1 || (it <= maxIterations && time.Now().Before(deadline)); it++ {
		root := tr.begin("sweep", 0, it)
		m := make(map[string]float64)
		if it%2 == 1 {
			plain(root, it)
		}
		sweepDur, err := b.tracedSweep(tr, root, it, m)
		if it%2 == 0 {
			plain(root, it)
		}
		if err == nil {
			err = b.decompose(tr, lp, root, it, sweepDur, m)
		}
		tr.end(root)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "traced sweep failed: %v\n", err)
			continue
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
	}
	if len(untraced) == 0 || len(per["sweep_ms"]) == 0 {
		return nil, attempted, failed, fmt.Errorf("no correct sweeps in the trace run")
	}
	out := make(map[string]float64, len(per))
	for k, vs := range per {
		out[k] = median(vs)
	}
	// Fractional cycles per sweep: the mean, since most sweeps run none.
	out["gc.cycles_per_sweep"] = mean(per["gc.cycles_per_sweep"])
	out["trace.overhead"] = out["sweep_ms"] / median(untraced)
	// A ratio of medians: with few cells a sweep's own ratio is dominated
	// by whichever cursor ran first.
	out["attack.fork_ratio"] = out["attack.cell_us.oracle"] / out["attack.cell_us.batched"]
	delete(out, "sweep_ms")
	return out, attempted, failed, nil
}

// peakRSSMB is the process's peak resident set so far, from getrusage.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}
