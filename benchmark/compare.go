package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest alternating parent/change run pairs a comparison
// needs before it claims anything.
const minPairs = 10

// boundedMetric is one end-to-end metric as BENCHMARK.json declares it.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdicts of one workload × metric comparison.
const (
	verdictGain       = "gain"
	verdictSame       = "no regression"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictFewPairs   = "too few pairs"
)

// row is one workload × metric comparison.
type row struct {
	workload, metric string
	parent, change   []float64
	wins, pairs      int
	verdict          string
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fleetbench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	metrics, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench compare:", err)
		return 2
	}
	parent, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench compare:", err)
		return 2
	}
	change, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench compare:", err)
		return 2
	}
	rows := compare(metrics, parent, change)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	code := 0
	for _, r := range rows {
		pm, cm := median(r.parent), median(r.change)
		p1, p3 := quartiles(r.parent)
		c1, c3 := quartiles(r.change)
		delta := "n/a"
		if pm != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/pm)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%s\n",
			r.workload, r.metric, pm, p1, p3, cm, c1, c3, delta, r.wins, r.pairs, r.verdict)
		if r.verdict == verdictRegression {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}

func loadBounds(path string) ([]boundedMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRecords reads the untraced runs of a --record file, by workload, in
// the order they were run.
func loadRecords(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 && r.Result != nil {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// compare applies the pairing rule to every workload both sides ran: run i
// of the parent pairs with run i of the change. Each end-to-end metric gets
// a row, and so does the failed fraction of sweeps, which may not rise.
func compare(metrics []boundedMetric, parent, change map[string][]*result) []row {
	var names []string
	for w := range parent {
		if _, ok := change[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		n := min(len(parent[w]), len(change[w]))
		ps, cs := parent[w][:n], change[w][:n]
		for _, m := range metrics {
			r := row{workload: w, metric: m.Name, pairs: n}
			for i := 0; i < n; i++ {
				r.parent = append(r.parent, ps[i].Metrics[m.Name].Value)
				r.change = append(r.change, cs[i].Metrics[m.Name].Value)
			}
			r.wins, r.verdict = judge(r.parent, r.change, m.Better == "higher", m.Bound)
			rows = append(rows, r)
		}
		rows = append(rows, failRow(w, ps, cs))
	}
	return rows
}

// judge applies the rule to one metric's paired runs. A gain needs the
// change to win at least nine tenths of the pairs (ties count for neither)
// and the medians to differ by more than the parent's interquartile range.
// A regression is a median worse than the parent's by more than bound (a
// share of the parent's median). When the parent's own spread exceeds the
// bound, no claim either way is made unless every change run beats every
// parent run.
func judge(parent, change []float64, higher bool, bound float64) (wins int, verdict string) {
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if len(parent) < minPairs {
		return wins, verdictFewPairs
	}
	pm, cm := median(parent), median(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := iqr(parent)
	if spread > bound*math.Abs(pm) && !allBetter {
		return wins, verdictUnresolved
	}
	worse := (cm - pm) / math.Abs(pm)
	if higher {
		worse = -worse
	}
	switch {
	case better(cm, pm) && 10*wins >= 9*len(parent) && math.Abs(cm-pm) > spread:
		return wins, verdictGain
	case worse > bound:
		return wins, verdictRegression
	}
	return wins, verdictSame
}

// failRow compares the failed fraction of sweeps: any increase regresses.
func failRow(w string, parent, change []*result) row {
	frac := func(rs []*result) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.Failed) / float64(r.Attempted)
		}
		return out
	}
	r := row{workload: w, metric: "fail_frac", parent: frac(parent), change: frac(change), pairs: len(parent), verdict: verdictSame}
	if mean(r.change) > mean(r.parent) {
		r.verdict = verdictRegression
	}
	return r
}
