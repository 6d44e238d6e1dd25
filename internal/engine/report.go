package engine

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/attack"
)

// VehicleReport is the merged outcome of one vehicle's simulation. It holds
// only what the vehicle measured: its VIN and seed derive from Index and the
// fleet's root seed, and its per-regime totals fold from Groups, where the
// fleet report renders them.
type VehicleReport struct {
	// Index is the vehicle's position in the fleet.
	Index int
	// Groups holds one regime-summary block per scenario group, in group
	// order — the per-vehicle slice the fleet fold and the campaign
	// executor read.
	//
	// Groups is read-only: on the batched path every vehicle after a run's
	// first shares the first vehicle's slices (the run-level stamp) instead
	// of owning a copy, the members AppendRun lists share their run's, and
	// vehicles decoded from a shard stream share one decoded copy of each
	// matrix the stream repeats, so writing through one vehicle's slice
	// would change every vehicle's.
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

// AppendRun appends the n >= 1 vehicles of the run v heads to dst, in
// index order: n copies of *v under the indices v.Index … v.Index+n-1.
func AppendRun(dst []VehicleReport, v *VehicleReport, n int) []VehicleReport {
	m := *v
	for range n {
		dst = append(dst, m)
		m.Index++
	}
	return dst
}

// GroupReport is one scenario group's fleet-merged outcome: per-regime
// aggregates folded across every vehicle, in vehicle-index order.
type GroupReport struct {
	// Name echoes the group.
	Name string
	// Regimes holds one fleet-merged aggregate per regime, in the group's
	// sweep order.
	Regimes []attack.RegimeSummary
}

// FleetReport is the fleet-wide merge, in vehicle-index order.
type FleetReport struct {
	// Fleet and Workers echo the run configuration.
	Fleet   int
	Workers int
	// RootSeed echoes the first group's root, which seeds the live phase:
	// vehicle i's line renders VehicleSeed(RootSeed, i).
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
	// whether supervision was armed (Config.Chaos or Config.VerifySample),
	// which forces the health line to render even when the ledger is all
	// zeros — a chaos run that contained nothing should say so.
	Health        Health
	HealthEnabled bool
}

// String renders the fleet report deterministically: same Config and
// RootSeed, byte-identical output, regardless of worker count.
func (r *FleetReport) String() string {
	var b strings.Builder
	r.Render(&b) // a strings.Builder never fails a write
	return b.String()
}

// Render writes the report String renders to w, through a buffer, and
// returns the first write error. A vehicle's line derives its VIN and seed
// from its Index and RootSeed, and its per-regime totals from its Groups.
// A vehicle without Groups (its visit failed before its cells, or its
// stack was never built) or with an unrecoverable failure booked (its
// Groups are partial) lists no regimes, though the fleet totals fold
// whatever it completed.
func (r *FleetReport) Render(w io.Writer) error {
	b := bufio.NewWriter(w)
	fmt.Fprintf(b, "fleet run: %d vehicle(s), %d worker(s), root seed %#x\n",
		r.Fleet, r.Workers, r.RootSeed)
	fmt.Fprintf(b, "bus: delivered=%d errors=%d wblk=%d rblk=%d aborted=%d mean-util=%.4f%%\n",
		r.FramesDelivered, r.BusErrors, r.WriteBlocked, r.ReadBlocked, r.AbortedTx,
		r.MeanUtilisation*100)
	fmt.Fprintf(b, "mac: checks=%d allowed=%d\n", r.MACChecks, r.MACAllowed)
	if r.HealthEnabled || !r.Health.IsZero() {
		fmt.Fprintf(b, "health: %s\n", r.Health)
	}
	for _, rs := range r.Attacks {
		fmt.Fprintf(b, "attacks[%s]: %s success=%.1f%% blocked=%.1f%%\n",
			rs.Regime, rs.Summary, rs.Summary.SuccessRate()*100, rs.Summary.BlockRate()*100)
	}
	var regimes []attack.RegimeSummary // one vehicle's, reused down the listing
	for i := range r.Vehicles {
		v := &r.Vehicles[i]
		fmt.Fprintf(b, "  VIN-%06d seed=%#016x delivered=%-5d util=%.4f%% steps=%-6d",
			v.Index, VehicleSeed(r.RootSeed, v.Index), v.FramesDelivered, v.Utilisation*100, v.SchedulerSteps)
		regimes = regimes[:0]
		if v.Health.Unrecoverable == 0 {
			regimes = foldGroups(regimes, v.Groups)
		}
		for _, rs := range regimes {
			fmt.Fprintf(b, " %s{succ=%d blk=%d}", rs.Regime, rs.Summary.Succeeded, rs.Summary.Blocked)
		}
		b.WriteByte('\n')
	}
	return b.Flush()
}
