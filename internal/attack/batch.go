package attack

// This file implements the planning half of prefix-checkpointed batching:
// grouping a scenario set's cells into buckets that share an identical
// pre-attack prefix, so a BatchRun can replay each prefix once per
// enforcement regime and fork the bucket's cells from a checkpoint.
//
// Bucketing is grouping, not reordering of work the caller can observe: the
// batched executor only produces per-regime aggregates, every fold into them
// (Summary.Add) is a commutative integer add, and each forked cell's Result
// equals its cold-run Result, so bucket-major execution is invisible in the
// output. That is what lets the planner bucket scenarios whose shared-prefix
// siblings ended up scattered by the campaign compiler's sample shuffle.

// BatchPlan is one scenario group's cells organised for prefix-checkpointed
// execution: the scenarios and regimes of a plain RunMatrix call, plus the
// prefix buckets PlanBatches derived from the scenarios' PrefixKeys. Plans
// are immutable after construction and hold no vehicle state, so one plan is
// shared by every worker (and every vehicle) of a fleet sweep.
type BatchPlan struct {
	// Scenarios is the scenario set, in the caller's order.
	Scenarios []Scenario
	// Regimes is the enforcement sweep, in the caller's order.
	Regimes []Enforcement

	// buckets holds scenario indices grouped by PrefixKey, buckets in
	// first-appearance order and indices in scenario order within each.
	buckets [][]int
}

// Cells returns the total number of scenario×regime cells the plan covers.
func (p *BatchPlan) Cells() int { return len(p.Scenarios) * len(p.Regimes) }

// PlanBatches buckets scenarios by PrefixKey for Arena.NewBatchRun.
// Scenarios with equal non-zero keys share a bucket (they promise an
// identical prefix: same Setup func or none); a zero key opts a scenario out
// of sharing and yields a singleton bucket. Buckets keep first-appearance
// order and scenario order within, so planning is deterministic.
func PlanBatches(scenarios []Scenario, regimes ...Enforcement) *BatchPlan {
	p := &BatchPlan{Scenarios: scenarios, Regimes: regimes}
	index := make(map[uint64]int, len(scenarios))
	for i := range scenarios {
		key := scenarios[i].PrefixKey
		if key == 0 {
			p.buckets = append(p.buckets, []int{i})
			continue
		}
		bi, ok := index[key]
		if !ok {
			bi = len(p.buckets)
			index[key] = bi
			p.buckets = append(p.buckets, nil)
		}
		p.buckets[bi] = append(p.buckets[bi], i)
	}
	return p
}
