package main

import "testing"

// runs returns n values around base, alternating ±jitter.
func runs(n int, base, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + jitter*float64(i%3-1)
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
	}{
		{"clear gain (lower is better)", runs(10, 100, 1), runs(10, 80, 1), false, 0.1, verdictGain},
		{"clear gain (higher is better)", runs(10, 100, 1), runs(10, 120, 1), true, 0.1, verdictGain},
		{"noise within the bound", runs(10, 100, 1), runs(10, 101, 1), false, 0.1, verdictSame},
		{"small change inside the parent's spread", runs(10, 100, 3), runs(10, 98, 3), false, 0.1, verdictSame},
		{"regression past the bound", runs(10, 100, 1), runs(10, 115, 1), false, 0.1, verdictRegression},
		{"throughput regression", runs(10, 100, 1), runs(10, 85, 1), true, 0.1, verdictRegression},
		{"spread wider than the bound", runs(10, 100, 20), runs(10, 95, 20), false, 0.1, verdictUnresolved},
		{"wide spread, but every change run is better", runs(10, 100, 20), runs(10, 50, 1), false, 0.1, verdictGain},
		{"too few pairs", runs(9, 100, 1), runs(9, 50, 1), false, 0.1, verdictFewPairs},
	} {
		_, got := judge(c.parent, c.change, c.higher, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	parent := runs(10, 100, 1)
	change := runs(10, 80, 1)
	change[0], change[1] = 200, 200 // two lost pairs: 8/10 wins
	wins, got := judge(parent, change, false, 0.1)
	if wins != 8 || got == verdictGain {
		t.Errorf("8/10 wins: verdict %q (wins %d), want no gain", got, wins)
	}
	change[1] = parent[1] // a tie counts for neither side
	if wins, got = judge(parent, change, false, 0.1); wins != 8 || got == verdictGain {
		t.Errorf("a tie: verdict %q (wins %d), want no gain", got, wins)
	}
}

func TestCompareRows(t *testing.T) {
	res := func(p50 float64, failed int) *result {
		return &result{Attempted: 100, Failed: failed, Metrics: map[string]value{"sweep_ms.p50": {Value: p50, Unit: "ms"}}}
	}
	parent := map[string][]*result{"w": nil, "parent-only": {res(1, 0)}}
	change := map[string][]*result{"w": nil}
	for i := 0; i < 10; i++ {
		parent["w"] = append(parent["w"], res(100+float64(i%2), 0))
		change["w"] = append(change["w"], res(130, i/9))
	}
	rows := compare([]boundedMetric{{Name: "sweep_ms.p50", Better: "lower", Bound: 0.1}}, parent, change)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want one metric row and one failure row for the shared workload", len(rows))
	}
	if rows[0].metric != "sweep_ms.p50" || rows[0].verdict != verdictRegression {
		t.Errorf("metric row = %s %q, want a regression", rows[0].metric, rows[0].verdict)
	}
	if rows[1].metric != "fail_frac" || rows[1].verdict != verdictRegression {
		t.Errorf("failure row = %s %q, want a regression (one failed sweep more)", rows[1].metric, rows[1].verdict)
	}
}
