package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
)

// pooledTestConfig is a small but fully featured sweep: several scenarios,
// both regimes, bus error injection active.
func pooledTestConfig(workers int) Config {
	return Config{
		Fleet:          10,
		Workers:        workers,
		Groups:         tableGroup(42, attack.Scenarios()[:4]),
		TrafficHorizon: 10 * time.Millisecond,
		ErrorRate:      0.02,
	}
}

// TestPooledMatchesFreshByteIdentical is the engine-level zero-rebuild
// contract: the pooled batched default and the fresh-construction NoBatch
// oracle render byte-identical fleet reports at every worker count.
func TestPooledMatchesFreshByteIdentical(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, w := range workerCounts {
		cfg := pooledTestConfig(w)
		pooled, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d pooled: %v", w, err)
		}
		cfg.NoBatch = true
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d fresh: %v", w, err)
		}
		if pooled.String() != fresh.String() {
			t.Errorf("workers=%d: pooled and fresh reports differ\n--- pooled\n%s--- fresh\n%s",
				w, pooled, fresh)
		}
	}
}

// TestPooledStableAcrossWorkerCounts checks the pooled engine keeps PR 1's
// worker-count determinism: only the echoed worker count may differ.
func TestPooledStableAcrossWorkerCounts(t *testing.T) {
	base, err := Run(pooledTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		fr, err := Run(pooledTestConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		fr.Workers = base.Workers // normalise the echoed configuration
		if fr.String() != base.String() {
			t.Errorf("workers=%d report differs from workers=1", w)
		}
	}
}

// TestPooledArenasRace drives many pooled workers concurrently so the race
// detector can observe the per-worker arena confinement. Run with -race.
func TestPooledArenasRace(t *testing.T) {
	cfg := pooledTestConfig(8)
	cfg.Fleet = 24
	var wg sync.WaitGroup
	reports := make([]*FleetReport, 3)
	for i := range reports {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			fr, err := Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			reports[slot] = fr
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(reports); i++ {
		if reports[i] == nil || reports[0] == nil {
			t.Fatal("missing report")
		}
		if reports[i].String() != reports[0].String() {
			t.Errorf("concurrent run %d diverged", i)
		}
	}
}
