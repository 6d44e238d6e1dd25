package shard

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

// TestRanges pins the contiguous-partition contract: ranges cover [0, total)
// exactly once, sizes differ by at most one, remainder goes earliest.
func TestRanges(t *testing.T) {
	tests := []struct {
		total, n int
		want     []Range
	}{
		{1, 1, []Range{{0, 1}}},
		{1, 4, []Range{{0, 1}}},                          // clamped to total
		{10, 4, []Range{{0, 3}, {3, 3}, {6, 2}, {8, 2}}}, // remainder earliest
		{8, 4, []Range{{0, 2}, {2, 2}, {4, 2}, {6, 2}}},  // even split
		{5, 0, []Range{{0, 5}}},                          // clamped to 1
		{1000000, 3, []Range{{0, 333334}, {333334, 333333}, {666667, 333333}}},
	}
	for _, tc := range tests {
		got := Ranges(tc.total, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("Ranges(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
			continue
		}
		covered := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Ranges(%d, %d)[%d] = %v, want %v", tc.total, tc.n, i, got[i], tc.want[i])
			}
			if got[i].Start != covered {
				t.Errorf("Ranges(%d, %d)[%d] not contiguous: start %d, want %d", tc.total, tc.n, i, got[i].Start, covered)
			}
			covered += got[i].Count
		}
		if covered != tc.total {
			t.Errorf("Ranges(%d, %d) covers %d vehicles", tc.total, tc.n, covered)
		}
	}
	if got := Ranges(0, 4); got != nil {
		t.Errorf("Ranges(0, 4) = %v, want nil", got)
	}
}

func TestParseRangeRoundTrip(t *testing.T) {
	for _, r := range Ranges(1000, 7) {
		got, err := ParseRange(r.String())
		if err != nil {
			t.Fatalf("ParseRange(%q): %v", r, err)
		}
		if got != r {
			t.Errorf("ParseRange(%q) = %v", r, got)
		}
	}
	for _, bad := range []string{
		"", "5", "-1:3", "0:0", "0:-2", "a:b",
		// fmt.Sscanf leniency regressions: trailing garbage, embedded
		// garbage, whitespace, signs and extra fields must all be
		// rejected, not truncated into a plausible range.
		"0:5x", "0x1:5", " 0:5", "0:5 ", "0: 5", "1:2:3", "+1:5", "0:+5", "١:٥",
	} {
		if _, err := ParseRange(bad); err == nil {
			t.Errorf("ParseRange(%q) accepted", bad)
		}
	}
}

// smallCfg is a fast whole-fleet config exercising live + MAC + attack
// phases with a reduced scenario set.
func smallCfg(fleet int) engine.Config {
	return engine.Config{
		Fleet:   fleet,
		Workers: 2,
		Groups: []engine.ScenarioGroup{{
			Scenarios: attack.Scenarios()[:2],
			Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
			RootSeed:  0xC0FFEE,
		}},
		TrafficHorizon: 10 * time.Millisecond,
	}
}

// TestShardedRunByteIdentical is the tentpole contract: the merged sharded
// report renders byte-identically to the unsharded engine.Run for every
// shard count, vehicle lines and all.
func TestShardedRunByteIdentical(t *testing.T) {
	cfg := smallCfg(9)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	for _, shards := range []int{1, 2, 4, 9, 20} {
		got, err := Run(Config{Engine: cfg, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.String() != want {
			t.Errorf("shards=%d: merged report diverged from unsharded oracle\n--- oracle\n%s\n--- sharded\n%s", shards, want, got.String())
		}
	}
}

// TestShardedChaosHealthIdentical asserts shard-layout invariance under
// armed supervision: chaos faults key on global vehicle indices, so the
// Health ledger (and everything else) must not move when the shard layout
// changes.
func TestShardedChaosHealthIdentical(t *testing.T) {
	cfg := smallCfg(8)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 0.2, Corrupt: 0.1}
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	if oracle.Health.IsZero() {
		t.Fatal("chaos plan injected nothing; test needs a fault-bearing config")
	}
	for _, shards := range []int{2, 3, 8} {
		got, err := Run(Config{Engine: cfg, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.String() != want {
			t.Errorf("shards=%d: chaos report diverged\n--- oracle\n%s\n--- sharded\n%s", shards, want, got.String())
		}
		if got.Health != oracle.Health {
			t.Errorf("shards=%d: health ledger moved: %+v vs %+v", shards, got.Health, oracle.Health)
		}
	}
}

// TestShardedUnrecoverableSurfaces asserts the partial-report contract
// across the shard boundary: an unrecoverable sweep error in one shard
// surfaces from Run naming the range, and the merged report still carries
// every shard's vehicles.
func TestShardedUnrecoverableSurfaces(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Chaos = &chaos.Plan{Seed: 3, Panic: 1, Persist: 99}
	got, err := Run(Config{Engine: cfg, Shards: 2})
	if err == nil {
		t.Fatal("unrecoverable chaos sweep returned nil error")
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Errorf("error does not name the shard: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("partial merged report missing vehicles: %+v", got)
	}
	if got.Health.Unrecoverable == 0 {
		t.Error("merged health ledger lost the unrecoverable count")
	}
}

// TestRunRejectsPreOffsetConfig pins the index-space ownership rule.
func TestRunRejectsPreOffsetConfig(t *testing.T) {
	cfg := smallCfg(4)
	cfg.IndexOffset = 2
	if _, err := Run(Config{Engine: cfg, Shards: 2}); err == nil {
		t.Fatal("Run accepted a pre-offset engine config")
	}
}

// wireSpawn is a binary-wire spawn hook without a subprocess: RunRangeWire
// streams frames into a pipe from a goroutine (real producer/consumer
// concurrency, no pre-buffered document) and the stream decodes the read
// end, exactly the shape carsim's -shard-exec hook has.
func wireSpawn(cfg engine.Config) Spawn {
	return func(r Range) (Stream, error) {
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(RunRangeWire(cfg, r, pw)) }()
		return NewWireStream(pr, pr.Close), nil
	}
}

// fakeChild encodes a shard stream the way a child writes it — vs as
// vehicle frames, then tr — so range-contract tests can script a child
// that misbehaves on an otherwise valid wire.
func fakeChild(t *testing.T, vs []engine.VehicleReport, tr wire.Trailer) Stream {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := range vs {
		if err := w.WriteVehicle(&vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteTrailer(tr); err != nil {
		t.Fatal(err)
	}
	return NewWireStream(&buf, nil)
}

// runChild encodes a shard stream the way a child writes a stamped range
// — first as one frame, then the run of n vehicles rest heads — and tr.
func runChild(t *testing.T, first, rest *engine.VehicleReport, n int, tr wire.Trailer) Stream {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteVehicle(first); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(rest, n); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrailer(tr); err != nil {
		t.Fatal(err)
	}
	return NewWireStream(&buf, nil)
}

// rangeVehicles runs the global vehicles of r in this process.
func rangeVehicles(t *testing.T, cfg engine.Config, r Range) []engine.VehicleReport {
	t.Helper()
	fr, err := engine.Run(rangeConfig(cfg, r))
	if err != nil {
		t.Fatal(err)
	}
	return fr.Vehicles
}

// TestBinaryWireStreamByteIdentical proves the binary protocol carries
// everything the merge needs: streaming frames through a pipe renders the
// same bytes as the unsharded oracle.
func TestBinaryWireStreamByteIdentical(t *testing.T) {
	cfg := smallCfg(7)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Engine: cfg, Shards: 3, Spawn: wireSpawn(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != oracle.String() {
		t.Errorf("binary wire merge diverged from oracle\n--- oracle\n%s\n--- wire\n%s", oracle.String(), got.String())
	}
}

// gatedStream is a Stream whose first Next waits for gate: a child that
// finishes after the ones spawned later.
type gatedStream struct {
	Stream
	gate *sync.WaitGroup
	once sync.Once
}

func (s *gatedStream) Next() (*engine.VehicleReport, error) {
	s.once.Do(s.gate.Wait)
	return s.Stream.Next()
}

// closeHook is a Stream that calls hook once closed.
type closeHook struct {
	Stream
	hook func()
}

func (s *closeHook) Close() error {
	defer s.hook()
	return s.Stream.Close()
}

// TestParallelFanOutByteIdentical pins the concurrent-driver contract:
// ranges may finish in any order and the report does not move a byte. At
// parallelism 4, range 0's stream blocks until ranges 1–3 have closed, so
// the first range in range order is the last to finish. Each child writes
// a frame per vehicle, 300 a range, so ranges 1–3 finish only if nothing
// holds their vehicles back for range 0.
func TestParallelFanOutByteIdentical(t *testing.T) {
	cfg := smallCfg(4 * 300)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	for _, par := range []int{4, 16} {
		var later sync.WaitGroup
		later.Add(3)
		streams := map[int]Stream{}
		for _, r := range Ranges(cfg.Fleet, 4) {
			st := fakeChild(t, oracle.Vehicles[r.Start:r.Start+r.Count], wire.Trailer{Start: r.Start, Count: r.Count})
			if r.Start == 0 {
				streams[r.Start] = &gatedStream{Stream: st, gate: &later}
			} else {
				streams[r.Start] = &closeHook{Stream: st, hook: later.Done}
			}
		}
		spawn := func(r Range) (Stream, error) { return streams[r.Start], nil }
		done := make(chan error, 1)
		var got *engine.FleetReport
		go func() {
			var err error
			got, err = Run(Config{Engine: cfg, Shards: 4, Spawn: spawn, Parallelism: par})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("parallelism=%d: %v", par, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("parallelism=%d: range 0 still waiting for ranges 1-3 after 30 s", par)
		}
		if got.String() != want {
			t.Errorf("parallelism=%d: merged report diverged from oracle\n--- oracle\n%s\n--- sharded\n%s", par, want, got.String())
		}
	}
}

// TestMisplacedRunRecorded pins the index check: a child that sends
// another range's vehicles under an honest trailer is recorded, its range
// folds and lists nothing, and the other range still merges.
func TestMisplacedRunRecorded(t *testing.T) {
	cfg := smallCfg(8)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[int]Stream{}
	for _, r := range Ranges(cfg.Fleet, 2) {
		vs := oracle.Vehicles[r.Start : r.Start+r.Count]
		if r.Start == 4 {
			vs = oracle.Vehicles[:4] // range 0's vehicles in range 1's stream
		}
		streams[r.Start] = fakeChild(t, vs, wire.Trailer{Start: r.Start, Count: r.Count})
	}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: func(r Range) (Stream, error) { return streams[r.Start], nil }})
	if err == nil || !strings.Contains(err.Error(), "shard 4:4: stream carried vehicle 0 where 4 was due") {
		t.Fatalf("misplaced vehicles not recorded: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("merged report lists %d vehicles, want range 0's 4", len(got.Vehicles))
	}
	for i, v := range got.Vehicles {
		if v.Index != i {
			t.Errorf("listed vehicle %d has index %d", i, v.Index)
		}
	}
	first := fakeChild(t, oracle.Vehicles[:4], wire.Trailer{Count: 4})
	want, err := Run(Config{Engine: cfg, Shards: 2, Spawn: func(r Range) (Stream, error) {
		if r.Start == 4 {
			return nil, errors.New("no child")
		}
		return first, nil
	}})
	if err == nil || got.String() != want.String() {
		t.Errorf("the misplaced range folded something\n--- range 0 alone\n%s\n--- got\n%s", want.String(), got.String())
	}
}

// TestStackFailureListsIdentities: an in-process range whose vehicle
// stacks cannot be built still emits every vehicle under its own index,
// so the driver records the sweep error and lists the range in place.
func TestStackFailureListsIdentities(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Harness = &attack.Harness{} // no enforcer: every arena fails to build
	got, err := Run(Config{Engine: cfg, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "shard 2:2: ") {
		t.Fatalf("stack failure not recorded against its range: %v", err)
	}
	if strings.Contains(err.Error(), "was due") {
		t.Errorf("stack-failure vehicles were taken for misplaced ones: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("merged report lists %d vehicles, want 4", len(got.Vehicles))
	}
	for i, v := range got.Vehicles {
		if v.Index != i {
			t.Errorf("listed vehicle %d has index %d", i, v.Index)
		}
	}
}

// TestRangeOutsideFleetRejected: a shard child asked for a range that
// leaves its whole fleet, or whose end overflows, fails before it writes a
// byte; a range that ends at the fleet's last vehicle streams.
func TestRangeOutsideFleetRejected(t *testing.T) {
	cfg := smallCfg(10)
	for _, r := range []Range{{50, 5}, {8, 3}, {-1, 2}, {0, 0}, {math.MaxInt - 1, 5}} {
		var buf bytes.Buffer
		err := RunRangeWire(cfg, r, &buf)
		if err == nil || !strings.Contains(err.Error(), "shard "+r.String()+": ") {
			t.Errorf("range %s: err = %v, want an error naming the range", r, err)
		}
		if buf.Len() != 0 {
			t.Errorf("range %s: wrote %d bytes", r, buf.Len())
		}
	}
	var buf bytes.Buffer
	if err := RunRangeWire(cfg, Range{8, 2}, &buf); err != nil || buf.Len() == 0 {
		t.Errorf("range 8:2 of 10: err = %v, %d bytes", err, buf.Len())
	}
}

// TestSpawnErrorPartialReport is the satellite regression: a Spawn error
// must be recorded like a shard sweep failure — the remaining ranges
// still merge and Run returns the partial report alongside the error —
// not discard every already-collected shard's vehicles.
func TestSpawnErrorPartialReport(t *testing.T) {
	cfg := smallCfg(8)
	boom := errors.New("host unreachable")
	healthy := wireSpawn(cfg)
	spawn := func(r Range) (Stream, error) {
		if r.Start == 2 { // the second of four 2-vehicle ranges
			return nil, boom
		}
		return healthy(r)
	}
	for _, par := range []int{1, 3} {
		got, err := Run(Config{Engine: cfg, Shards: 4, Spawn: spawn, Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism=%d: spawn failure surfaced no error", par)
		}
		if !errors.Is(err, boom) {
			t.Errorf("parallelism=%d: joined error lost the spawn cause: %v", par, err)
		}
		if !strings.Contains(err.Error(), "shard 2:2") {
			t.Errorf("parallelism=%d: error does not name the failed range: %v", par, err)
		}
		if got == nil {
			t.Fatalf("parallelism=%d: no partial report", par)
		}
		if len(got.Vehicles) != 6 {
			t.Errorf("parallelism=%d: partial report carries %d vehicles, want 6 (the three healthy shards)", par, len(got.Vehicles))
		}
		for i, want := range []int{0, 1, 4, 5, 6, 7} {
			if got.Vehicles[i].Index != want {
				t.Errorf("parallelism=%d: vehicle %d has index %d, want %d", par, i, got.Vehicles[i].Index, want)
			}
		}
	}
}

// TestTrailerMismatchRecorded pins the range-echo check: a stream whose
// trailer claims the wrong range is recorded, the rest still merges.
func TestTrailerMismatchRecorded(t *testing.T) {
	cfg := smallCfg(4)
	spawn := func(r Range) (Stream, error) {
		tr := wire.Trailer{Start: r.Start, Count: r.Count}
		if r.Start == 0 {
			tr = wire.Trailer{Start: 99, Count: 1} // lie about coverage
		}
		return fakeChild(t, rangeVehicles(t, cfg, r), tr), nil
	}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: spawn})
	if err == nil {
		t.Fatal("range-echo mismatch surfaced no error")
	}
	if !strings.Contains(err.Error(), "covers 99:1") {
		t.Errorf("error does not describe the mismatch: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("mismatched shard's vehicles were dropped: %+v", got)
	}
}

// TestOvercountRecorded pins the vehicle-count check: a stream carrying
// one vehicle more than its range, under an honest trailer, is recorded;
// only the range's own vehicles fold, and the other shard still merges —
// the merged report still matches the unsharded oracle. The extra vehicle
// comes as a frame of its own, or as the tail of a run frame whose
// in-range prefix must still fold.
func TestOvercountRecorded(t *testing.T) {
	cfg := smallCfg(4)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		child func(r Range, tr wire.Trailer) Stream
	}{
		{"single frames", func(r Range, tr wire.Trailer) Stream {
			frames := r
			if r.Start == 0 {
				frames.Count++ // one vehicle past the range
			}
			return fakeChild(t, rangeVehicles(t, cfg, frames), tr)
		}},
		{"run frame", func(r Range, tr wire.Trailer) Stream {
			vs := rangeVehicles(t, cfg, r)
			n := r.Count - 1
			if r.Start == 0 {
				n++ // the run reaches one vehicle past the range
			}
			return runChild(t, &vs[0], &vs[1], n, tr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spawn := func(r Range) (Stream, error) {
				return tc.child(r, wire.Trailer{Start: r.Start, Count: r.Count}), nil
			}
			got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: spawn})
			if err == nil {
				t.Fatal("overcounting stream surfaced no error")
			}
			if !strings.Contains(err.Error(), "shard 0:2: stream carried 3 vehicles") {
				t.Errorf("error does not describe the overcount: %v", err)
			}
			if got == nil || len(got.Vehicles) != 4 {
				t.Fatalf("merged report carries %d vehicles, want 4", len(got.Vehicles))
			}
			if got.String() != oracle.String() {
				t.Errorf("overcount leaked into the merge\n--- oracle\n%s\n--- got\n%s", oracle.String(), got.String())
			}
		})
	}
}

// TestHugeRunCountRecorded: a CRC-valid run frame claiming 2^40 vehicles
// fails its range in O(1) — the driver counts a run, it never iterates
// over it — while the range's own vehicles fold and list, and the other
// shards still merge, at any parallelism.
func TestHugeRunCountRecorded(t *testing.T) {
	cfg := smallCfg(6)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(r Range) (Stream, error) {
		vs := rangeVehicles(t, cfg, r)
		n := r.Count - 1
		if r.Start == 2 {
			n = 1 << 40
		}
		return runChild(t, &vs[0], &vs[1], n, wire.Trailer{Start: r.Start, Count: r.Count}), nil
	}
	for _, par := range []int{1, 3} {
		got, err := Run(Config{Engine: cfg, Shards: 3, Spawn: spawn, Parallelism: par})
		if err == nil || !strings.Contains(err.Error(), "shard 2:2: stream carried 1099511627777 vehicles") {
			t.Errorf("parallelism=%d: error does not describe the overcount: %v", par, err)
		}
		if got == nil || got.String() != oracle.String() {
			t.Errorf("parallelism=%d: the huge run leaked into the merge", par)
		}
	}
}

// countingStream is a Stream wrapper that counts the vehicles it hands
// out, as a caller tracing its children wraps them.
type countingStream struct {
	Stream
	n int
}

func (s *countingStream) Next() (*engine.VehicleReport, error) {
	v, err := s.Stream.Next()
	if v != nil {
		s.n++
	}
	return v, err
}

// TestWrappedStreamReadPerVehicle: a Stream that embeds a wire stream does
// not promote its run reader, so the driver reads it through the
// wrapper's Next, one vehicle at a time, and merges the same report.
func TestWrappedStreamReadPerVehicle(t *testing.T) {
	cfg := smallCfg(7)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrap := wireSpawn(cfg)
	var streams []*countingStream
	spawn := func(r Range) (Stream, error) {
		st, err := wrap(r)
		cs := &countingStream{Stream: st}
		streams = append(streams, cs)
		return cs, err
	}
	got, err := Run(Config{Engine: cfg, Shards: 3, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != oracle.String() {
		t.Errorf("wrapped streams merged another report\n--- oracle\n%s\n--- got\n%s", oracle.String(), got.String())
	}
	for i, r := range Ranges(cfg.Fleet, 3) {
		if streams[i].n != r.Count {
			t.Errorf("shard %s: the wrapper's Next handed out %d vehicles, want %d", r, streams[i].n, r.Count)
		}
	}
}

// TestWrappedHugeRunStopsAtRange: a wrapped stream is read vehicle by
// vehicle, so a CRC-valid run frame claiming 2^40 vehicles comes out of
// the wrapper's Next one vehicle at a time. The driver stops reading a
// stream once it has carried more than its range: the wrapper hands out
// Count+1 vehicles, the overcount is recorded, and the other shards still
// merge, at any parallelism.
func TestWrappedHugeRunStopsAtRange(t *testing.T) {
	cfg := smallCfg(6)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		fr  *engine.FleetReport
		err error
	}
	for _, par := range []int{1, 3} {
		streams := map[int]*countingStream{}
		for _, r := range Ranges(cfg.Fleet, 3) {
			vs := oracle.Vehicles[r.Start : r.Start+r.Count]
			n := r.Count - 1
			if r.Start == 2 {
				n = 1 << 40
			}
			tr := wire.Trailer{Start: r.Start, Count: r.Count}
			streams[r.Start] = &countingStream{Stream: runChild(t, &vs[0], &vs[1], n, tr)}
		}
		spawn := func(r Range) (Stream, error) { return streams[r.Start], nil }
		done := make(chan result, 1)
		go func() {
			fr, err := Run(Config{Engine: cfg, Shards: 3, Spawn: spawn, Parallelism: par})
			done <- result{fr, err}
		}()
		var got result
		select {
		case got = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("parallelism=%d: still reading the 2^40-vehicle run after 30 s", par)
		}
		if got.err == nil || !strings.Contains(got.err.Error(), "shard 2:2: stream carried 3 vehicles") {
			t.Errorf("parallelism=%d: error does not describe the overcount: %v", par, got.err)
		}
		if n := streams[2].n; n != 3 {
			t.Errorf("parallelism=%d: the wrapper's Next handed out %d vehicles, want 3 (the range's count plus one)", par, n)
		}
		if got.fr == nil || got.fr.String() != oracle.String() {
			t.Errorf("parallelism=%d: the huge run leaked into the merge", par)
		}
	}
}

// TestAggregateKeepsNoVehicles: Aggregate is Run without the per-vehicle
// section, in process and over the wire.
func TestAggregateKeepsNoVehicles(t *testing.T) {
	cfg := smallCfg(9)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Vehicles = nil
	for name, spawn := range map[string]Spawn{"in-process": nil, "wire": wireSpawn(cfg)} {
		got, err := Aggregate(Config{Engine: cfg, Shards: 4, Spawn: spawn, Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Vehicles != nil {
			t.Errorf("%s: Aggregate kept %d vehicles", name, len(got.Vehicles))
		}
		if got.String() != oracle.String() {
			t.Errorf("%s: Aggregate differs from Run\n--- oracle\n%s\n--- got\n%s", name, oracle.String(), got.String())
		}
	}
}

// TestWireUnrecoverableSurfaces runs the unrecoverable-sweep contract over
// the binary wire: the trailer carries the sweep error, the partial
// vehicles still stream, and the parent folds + surfaces both.
func TestWireUnrecoverableSurfaces(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Chaos = &chaos.Plan{Seed: 3, Panic: 1, Persist: 99}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: wireSpawn(cfg), Parallelism: 2})
	if err == nil {
		t.Fatal("unrecoverable chaos sweep returned nil error")
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Errorf("error does not name the shard: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("partial merged report missing vehicles: %+v", got)
	}
	if got.Health.Unrecoverable == 0 {
		t.Error("merged health ledger lost the unrecoverable count")
	}
}

// TestCorruptWireStreamRecorded pins the checksum containment stance end
// to end: a corrupted shard stream surfaces as wire.ErrFrameChecksum in
// the joined error, the other shard still merges, and nothing from the
// corrupt stream's tail lands in the report silently.
func TestCorruptWireStreamRecorded(t *testing.T) {
	cfg := smallCfg(4)
	spawn := func(r Range) (Stream, error) {
		var buf bytes.Buffer
		if err := RunRangeWire(cfg, r, &buf); err != nil {
			return nil, err
		}
		b := buf.Bytes()
		if r.Start == 2 {
			b[len(b)/2] ^= 0x01 // flip one mid-stream bit
		}
		return NewWireStream(bytes.NewReader(b), nil), nil
	}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: spawn})
	if err == nil {
		t.Fatal("corrupted stream surfaced no error")
	}
	if !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("joined error is not ErrFrameChecksum: %v", err)
	}
	if got == nil || len(got.Vehicles) < 2 {
		t.Fatalf("healthy shard's vehicles were dropped: %+v", got)
	}
}

// TestNonFiniteUtilisationRecorded: a CRC-valid child stream carrying a
// NaN utilisation is recorded as corruption against its range, and the
// other range still merges; the parent's exact fold never sees the NaN.
func TestNonFiniteUtilisationRecorded(t *testing.T) {
	cfg := smallCfg(4)
	streams := map[int]Stream{}
	for _, r := range Ranges(cfg.Fleet, 2) {
		vs := rangeVehicles(t, cfg, r)
		if r.Start == 2 {
			vs[1].Utilisation = math.NaN()
		}
		streams[r.Start] = fakeChild(t, vs, wire.Trailer{Start: r.Start, Count: r.Count})
	}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: func(r Range) (Stream, error) { return streams[r.Start], nil }})
	if !errors.Is(err, wire.ErrFrameChecksum) || !strings.Contains(err.Error(), "shard 2:2: ") {
		t.Fatalf("NaN utilisation not recorded against its range: %v", err)
	}
	if got == nil || len(got.Vehicles) != 3 || math.IsNaN(got.MeanUtilisation) {
		t.Fatalf("merged report: %+v", got)
	}
}
