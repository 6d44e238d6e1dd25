// Package hpe simulates the hardware-based policy engine of the paper's
// Fig. 4: a block sitting between a node's CAN controller and transceiver,
// holding an approved reading list and an approved writing list of message
// identifiers, with a decision block that grants or blocks each frame.
//
// Two properties from §V-B.2 are modelled faithfully:
//
//   - Transparency: the engine implements canbus.InlineFilter and is invisible
//     to node software; nothing in the node's firmware path can mutate it.
//     Table swaps happen only through InstallEnforcer (Install is it on the
//     table backend), which the secure policy-update path (policy.Store) and
//     the attack harness drive.
//   - Robustness to firmware compromise: compromising the CAN controller
//     (Controller.CompromiseFilters) bypasses software acceptance filters but
//     leaves the engine's filtering intact, because it is a separate hardware
//     entity.
//
// Every policy backend (internal/policy/ir) compiles to those two lists:
// an engine installs the node's policy.NodeTable from ir.Enforcer.Node,
// whichever backend built it, and Decide queries the current mode's lists.
// There is one decision path; backends differ only in the policy.IDLookup
// behind each list.
//
// Because a real HPE is an RTL block, the simulation also counts cycles at
// a fixed per-decision cost so reports can give decision latency in
// hardware terms.
package hpe

import (
	"errors"
	"fmt"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/policy/ir"
)

// ModeSource reports the device's current operating mode. The connected-car
// model implements this; the engine consults it on every decision so a mode
// switch (Normal -> Fail-safe) changes enforcement instantly.
type ModeSource interface {
	// Mode returns the current operating mode.
	Mode() policy.Mode
}

// FixedMode is a ModeSource pinned to one mode, for tests and single-mode
// devices.
type FixedMode policy.Mode

// Mode implements ModeSource.
func (m FixedMode) Mode() policy.Mode { return policy.Mode(m) }

var _ ModeSource = FixedMode("")

// The cycle cost model approximates a modest FPGA implementation.
const (
	// ClockHz is the engine clock frequency: 100 MHz.
	ClockHz = 100_000_000
	// CyclesPerDecision is the cost of one grant/block decision: a 2-cycle
	// header decode, a single-cycle CAM lookup and a 1-cycle decision.
	CyclesPerDecision = 2 + 1 + 1
)

// LatencyNanos converts a cycle count to nanoseconds at ClockHz.
func LatencyNanos(cycles uint64) float64 {
	return float64(cycles) / ClockHz * 1e9
}

// Stats counts engine activity. All counters are monotonically increasing.
type Stats struct {
	// Decisions counts every consultation of the decision block.
	Decisions uint64
	// ReadsGranted / ReadsBlocked split inbound outcomes.
	ReadsGranted, ReadsBlocked uint64
	// WritesGranted / WritesBlocked split outbound outcomes.
	WritesGranted, WritesBlocked uint64
	// Cycles accumulates the modelled hardware cycle cost.
	Cycles uint64
	// Installs counts policy table swaps. Reset keeps it.
	Installs uint64
}

// Engine is one node's policy engine instance.
//
// An Engine belongs to one simulated vehicle and follows the single-owner
// contract of the canbus.Bus it filters: every call, Install included, runs
// on the goroutine that drives the vehicle's scheduler, and another
// goroutine may read it only across a synchronising handoff.
type Engine struct {
	subject string
	modes   ModeSource

	// table is the node's approved lists, swapped whole on every install.
	table   *policy.NodeTable
	backend string // its enforcer's backend name ("" before any install)

	// Resolved mode-table cache: it skips the per-decision map lookup
	// NodeTable.Table performs while neither the table nor the mode moves.
	cacheTable *policy.NodeTable
	cacheMode  policy.Mode
	cacheMT    policy.ModeTable

	stats   Stats
	auditor *Auditor
}

var _ canbus.InlineFilter = (*Engine)(nil)

// New creates an engine for the named node. Until Install is called the
// engine fails closed: every frame is blocked, matching the paper's
// least-privilege stance (§V-B).
func New(subject string, modes ModeSource) *Engine {
	if modes == nil {
		panic("hpe: nil ModeSource")
	}
	return &Engine{subject: subject, modes: modes}
}

// Subject returns the node name this engine protects.
func (e *Engine) Subject() string { return e.subject }

// Install loads the node's table from a compiled policy: InstallEnforcer
// on the table backend.
func (e *Engine) Install(c *policy.Compiled) error {
	if c == nil {
		return fmt.Errorf("hpe: nil compiled policy")
	}
	return e.InstallEnforcer(ir.WrapCompiled(c))
}

// InstallEnforcer loads the node's approved lists from a compiled enforcer,
// whatever its backend. It is the only mutation path, used by the secure
// update mechanism; the next decision uses the new lists.
func (e *Engine) InstallEnforcer(enf ir.Enforcer) error {
	if enf == nil {
		return fmt.Errorf("hpe: nil enforcer")
	}
	e.table = enf.Node(e.subject)
	e.backend = enf.Backend()
	e.stats.Installs++
	return nil
}

// Reset zeroes the engine's decision counters. The installed table, the
// Installs count, the mode source and the attached auditor are kept: a
// reset engine decides and counts exactly as a freshly deployed one with
// the same table.
func (e *Engine) Reset() { e.stats = Stats{Installs: e.stats.Installs} }

// Snapshot captures an engine's mutable decision state — the statistics and
// the resolved-table cache — for the attack arena's prefix checkpointing.
// The installed table is deliberately not captured: no install runs inside
// a checkpoint window (regime provisioning happens before the capture), so
// it is invariant across every restore, and the cache fields re-resolve
// against the same table.
type Snapshot struct {
	stats      Stats
	backend    string
	cacheTable *policy.NodeTable
	cacheMode  policy.Mode
	cacheMT    policy.ModeTable
}

// ErrBackendMismatch reports a checkpoint restored onto an engine running a
// different policy backend: the captured cache state would silently mix
// enforcement forms, so the restore fails fast instead.
var ErrBackendMismatch = errors.New("hpe: snapshot backend mismatch")

// Snapshot captures the engine's mutable state into dst.
func (e *Engine) Snapshot(dst *Snapshot) {
	dst.stats = e.stats
	dst.backend = e.backend
	dst.cacheTable = e.cacheTable
	dst.cacheMode = e.cacheMode
	dst.cacheMT = e.cacheMT
}

// RestoreFrom rewinds the engine to a state captured by Snapshot. A restored
// engine decides and counts byte-identically to one that replayed the
// captured prefix after a Reset. The snapshot carries the identity of the
// backend that was active at capture time; restoring it onto an engine
// running a different backend returns ErrBackendMismatch.
func (e *Engine) RestoreFrom(src *Snapshot) error {
	if e.backend != src.backend {
		return fmt.Errorf("%w: engine %q runs %q, snapshot captured under %q",
			ErrBackendMismatch, e.subject, e.backend, src.backend)
	}
	e.stats = src.stats
	e.cacheTable = src.cacheTable
	e.cacheMode = src.cacheMode
	e.cacheMT = src.cacheMT
	return nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Decide implements canbus.InlineFilter: it consults the approved reading
// list for inbound frames and the approved writing list for outbound
// frames, granting only identifiers present for the current mode.
func (e *Engine) Decide(dir canbus.Direction, f canbus.Frame) canbus.Verdict {
	verdict := canbus.Block
	if t := e.table; t != nil {
		mode := e.modes.Mode()
		if t != e.cacheTable || mode != e.cacheMode {
			e.cacheTable, e.cacheMode, e.cacheMT = t, mode, t.Table(mode)
		}
		mt := e.cacheMT
		switch dir {
		case canbus.Read:
			if mt.Reads != nil && mt.Reads.Contains(f.ID) {
				verdict = canbus.Grant
			}
		case canbus.Write:
			if mt.Writes != nil && mt.Writes.Contains(f.ID) {
				verdict = canbus.Grant
			}
		}
	}

	e.stats.Decisions++
	e.stats.Cycles += CyclesPerDecision
	switch {
	case dir == canbus.Read && verdict == canbus.Grant:
		e.stats.ReadsGranted++
	case dir == canbus.Read:
		e.stats.ReadsBlocked++
	case dir == canbus.Write && verdict == canbus.Grant:
		e.stats.WritesGranted++
	default:
		e.stats.WritesBlocked++
	}
	if verdict == canbus.Block && e.auditor != nil {
		e.auditor.record(e.subject, dir, e.modes.Mode(), f)
	}
	return verdict
}

// Deploy attaches engines to every listed node of a bus and installs the
// compiled policy into each: DeployEnforcer on the table backend.
func Deploy(bus *canbus.Bus, compiled *policy.Compiled, modes ModeSource, nodeNames ...string) (map[string]*Engine, error) {
	if compiled == nil {
		return nil, fmt.Errorf("hpe: nil compiled policy")
	}
	return DeployEnforcer(bus, ir.WrapCompiled(compiled), modes, nodeNames...)
}

// DeployEnforcer attaches engines to every listed node of a bus and
// installs the enforcer's approved lists into each. It returns the engines
// keyed by node name.
func DeployEnforcer(bus *canbus.Bus, enf ir.Enforcer, modes ModeSource, nodeNames ...string) (map[string]*Engine, error) {
	engines := make(map[string]*Engine, len(nodeNames))
	for _, name := range nodeNames {
		node, ok := bus.Node(name)
		if !ok {
			return nil, fmt.Errorf("hpe: node %q not attached to bus", name)
		}
		eng := New(name, modes)
		if err := eng.InstallEnforcer(enf); err != nil {
			return nil, err
		}
		node.SetInlineFilter(eng)
		engines[name] = eng
	}
	return engines, nil
}
