package engine

import (
	"fmt"
	"strings"

	"repro/internal/attack"
)

// VehicleReport is the merged outcome of one vehicle's simulation.
type VehicleReport struct {
	// Index is the vehicle's position in the fleet.
	Index int
	// VIN is the deterministic vehicle identifier.
	VIN string
	// Seed is the vehicle's derived simulation seed (the first group's, when
	// the run sweeps multiple scenario groups).
	Seed uint64
	// Attacks holds one aggregate per enforcement regime, keyed by first
	// appearance across the vehicle's scenario groups. For a single-group
	// run this is exactly the group's sweep-order aggregates.
	Attacks []attack.RegimeSummary
	// Groups holds one regime-summary block per scenario group, in group
	// order — the per-vehicle slice the campaign executor folds from.
	//
	// Groups and Attacks are read-only: on the batched path every vehicle
	// after a run's first shares the first vehicle's slices (the run-level
	// stamp) instead of owning a copy, and vehicles decoded from a shard
	// stream share one decoded copy of each matrix the stream repeats, so
	// writing through one vehicle's slice would change every vehicle's.
	Groups [][]attack.RegimeSummary
	// FramesDelivered, BusErrors, WriteBlocked, ReadBlocked and AbortedTx
	// are the background simulation's bus counters.
	FramesDelivered uint64
	BusErrors       uint64
	WriteBlocked    uint64
	ReadBlocked     uint64
	AbortedTx       uint64
	// Utilisation is the background simulation's bus utilisation.
	Utilisation float64
	// SchedulerSteps counts discrete events the vehicle's scheduler ran.
	SchedulerSteps uint64
	// MACChecks and MACAllowed count the least-privilege probe outcomes.
	MACChecks  int
	MACAllowed int
	// Health is the vehicle's containment ledger: every quarantine, retry,
	// demotion and verification event of the supervised visit (zero on the
	// unsupervised fast path).
	Health Health
}

// Member returns the report of vehicle index of the run v heads: v under
// that vehicle's own Index, VIN and Seed, which derive from the index and
// root, the run's Groups[0].RootSeed. A run's vehicles differ from its
// first in nothing else (see Aggregate).
func (v *VehicleReport) Member(root uint64, index int) VehicleReport {
	m := *v
	m.Index, m.VIN, m.Seed = index, VIN(index), VehicleSeed(root, index)
	return m
}

// GroupReport is one scenario group's fleet-merged outcome: per-regime
// aggregates folded across every vehicle, in vehicle-index order.
type GroupReport struct {
	// Name and RootSeed echo the group.
	Name     string
	RootSeed uint64
	// Regimes holds one fleet-merged aggregate per regime, in the group's
	// sweep order.
	Regimes []attack.RegimeSummary
}

// FleetReport is the fleet-wide merge, in vehicle-index order.
type FleetReport struct {
	// Fleet and Workers echo the run configuration.
	Fleet   int
	Workers int
	// RootSeed echoes the first group's root, which seeds the live phase
	// and the per-vehicle Seed column.
	RootSeed uint64
	// Vehicles holds every per-vehicle report, ordered by index: Run's
	// listing. It is nil from Aggregate, which returns the same report
	// without materialising the per-vehicle section.
	Vehicles []VehicleReport
	// Groups holds one fleet-merged block per scenario group, in group
	// order.
	Groups []GroupReport
	// Attacks holds fleet-merged attack aggregates, one per regime keyed by
	// first appearance across groups.
	Attacks []attack.RegimeSummary
	// Fleet-wide bus totals from the background simulations.
	FramesDelivered uint64
	BusErrors       uint64
	WriteBlocked    uint64
	ReadBlocked     uint64
	AbortedTx       uint64
	// MeanUtilisation averages per-vehicle bus utilisation.
	MeanUtilisation float64
	// MACChecks and MACAllowed total the least-privilege probe outcomes.
	MACChecks  int
	MACAllowed int
	// Health folds every vehicle's containment ledger; HealthEnabled records
	// whether supervision was explicitly armed (chaos injection or verify
	// sampling), which forces the health line to render even when the ledger
	// is all zeros — a chaos run that contained nothing should say so.
	Health        Health
	HealthEnabled bool
}

// String renders the fleet report deterministically: same Config and
// RootSeed, byte-identical output, regardless of worker count.
func (r *FleetReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet run: %d vehicle(s), %d worker(s), root seed %#x\n",
		r.Fleet, r.Workers, r.RootSeed)
	fmt.Fprintf(&b, "bus: delivered=%d errors=%d wblk=%d rblk=%d aborted=%d mean-util=%.4f%%\n",
		r.FramesDelivered, r.BusErrors, r.WriteBlocked, r.ReadBlocked, r.AbortedTx,
		r.MeanUtilisation*100)
	fmt.Fprintf(&b, "mac: checks=%d allowed=%d\n", r.MACChecks, r.MACAllowed)
	if r.HealthEnabled || !r.Health.IsZero() {
		fmt.Fprintf(&b, "health: %s\n", r.Health)
	}
	for _, rs := range r.Attacks {
		fmt.Fprintf(&b, "attacks[%s]: %s success=%.1f%% blocked=%.1f%%\n",
			rs.Regime, rs.Summary, rs.Summary.SuccessRate()*100, rs.Summary.BlockRate()*100)
	}
	for i := range r.Vehicles {
		v := &r.Vehicles[i]
		fmt.Fprintf(&b, "  %s seed=%#016x delivered=%-5d util=%.4f%% steps=%-6d",
			v.VIN, v.Seed, v.FramesDelivered, v.Utilisation*100, v.SchedulerSteps)
		for _, rs := range v.Attacks {
			fmt.Fprintf(&b, " %s{succ=%d blk=%d}", rs.Regime, rs.Summary.Succeeded, rs.Summary.Blocked)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
