// Package hpe simulates the hardware-based policy engine of the paper's
// Fig. 4: a block sitting between a node's CAN controller and transceiver,
// holding an approved reading list and an approved writing list of message
// identifiers, with a decision block that grants or blocks each frame.
//
// Two properties from §V-B.2 are modelled faithfully:
//
//   - Transparency: the engine implements canbus.InlineFilter and is invisible
//     to node software; nothing in the node's firmware path can mutate it.
//     Table swaps happen only through Install/InstallEnforcer, which the
//     secure policy-update path (policy.Store) and the attack harness drive.
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
// Because a real HPE is an RTL block, the simulation also carries a cycle
// cost model so benchmarks can report decision latency in hardware terms.
package hpe

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// CycleModel prices engine operations in hardware clock cycles.
type CycleModel struct {
	// ClockHz is the engine clock frequency (for latency conversion).
	ClockHz uint64
	// DecodeCycles is the fixed cost of parsing the frame header.
	DecodeCycles uint64
	// LookupCycles is the cost of one approved-list query (1 for a CAM).
	LookupCycles uint64
	// DecisionCycles is the cost of the decision block itself.
	DecisionCycles uint64
}

// DefaultCycleModel approximates a modest FPGA implementation: 100 MHz
// clock, 2-cycle header decode, single-cycle CAM lookup, 1-cycle decision.
func DefaultCycleModel() CycleModel {
	return CycleModel{ClockHz: 100_000_000, DecodeCycles: 2, LookupCycles: 1, DecisionCycles: 1}
}

// PerDecision returns the cycle cost of one grant/block decision.
func (m CycleModel) PerDecision() uint64 {
	return m.DecodeCycles + m.LookupCycles + m.DecisionCycles
}

// LatencyNanos converts a cycle count to nanoseconds at the engine clock.
func (m CycleModel) LatencyNanos(cycles uint64) float64 {
	if m.ClockHz == 0 {
		return 0
	}
	return float64(cycles) / float64(m.ClockHz) * 1e9
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
	// Installs counts policy table swaps.
	Installs uint64
}

// Engine is one node's policy engine instance.
//
// By default an Engine is safe for concurrent use: the table swap is atomic
// and the statistics are mutex-protected. A fleet worker that confines an
// engine to one goroutine can call SetSingleOwner(true) to drop the mutex
// from the decision hot path (the same single-owner contract canbus.Bus
// carries).
type Engine struct {
	subject string
	modes   ModeSource
	cycles  CycleModel
	// perDecision caches cycles.PerDecision(): the sum sits on the
	// per-frame decision path of every node.
	perDecision uint64
	single      bool // single-owner mode: skip the stats mutex

	// table is the node's approved lists, swapped whole on every install.
	table   atomic.Pointer[policy.NodeTable]
	source  ir.Enforcer // the enforcer the table came from
	backend string      // its backend name ("" before any install)

	// Resolved mode-table cache, maintained only in single-owner mode: it
	// skips the per-decision map lookup NodeTable.Table performs. The
	// concurrent default path must not touch it (Install may race Decide).
	cacheTable *policy.NodeTable
	cacheMode  policy.Mode
	cacheMT    policy.ModeTable

	mu      sync.Mutex
	stats   Stats
	auditor *Auditor
}

var _ canbus.InlineFilter = (*Engine)(nil)

// New creates an engine for the named node. Until Install is called the
// engine fails closed: every frame is blocked, matching the paper's
// least-privilege stance (§V-B).
func New(subject string, modes ModeSource, cycles CycleModel) *Engine {
	if modes == nil {
		panic("hpe: nil ModeSource")
	}
	return &Engine{subject: subject, modes: modes, cycles: cycles, perDecision: cycles.PerDecision()}
}

// Subject returns the node name this engine protects.
func (e *Engine) Subject() string { return e.subject }

// SetSingleOwner switches the engine into (or out of) single-owner mode: the
// caller asserts every Decide/Stats/Install/Reset happens on one goroutine,
// and the engine stops taking its internal mutex. Must itself be called by
// that owner, before any concurrent use.
func (e *Engine) SetSingleOwner(on bool) { e.single = on }

// lock and unlock guard the stats; no-ops in single-owner mode.
func (e *Engine) lock() {
	if !e.single {
		e.mu.Lock()
	}
}

func (e *Engine) unlock() {
	if !e.single {
		e.mu.Unlock()
	}
}

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
// update mechanism; the swap is atomic with respect to concurrent
// decisions.
func (e *Engine) InstallEnforcer(enf ir.Enforcer) error {
	if enf == nil {
		return fmt.Errorf("hpe: nil enforcer")
	}
	e.table.Store(enf.Node(e.subject))
	e.lock()
	e.source = enf
	e.backend = enf.Backend()
	e.stats.Installs++
	e.unlock()
	return nil
}

// ReinstallEnforcer is InstallEnforcer specialised for re-provisioning a
// pooled engine: when enf is the enforcer already installed, the installed
// table is kept instead of being looked up again (a table enforcer builds
// a fresh deny-all table per lookup of an unknown subject). A different
// enforcer falls back to a full InstallEnforcer.
func (e *Engine) ReinstallEnforcer(enf ir.Enforcer) error {
	e.lock()
	same := enf != nil && e.source == enf
	if same {
		e.stats.Installs++
	}
	e.unlock()
	if same {
		return nil
	}
	return e.InstallEnforcer(enf)
}

// Installed reports whether a policy table has been loaded.
func (e *Engine) Installed() bool { return e.table.Load() != nil }

// Backend returns the name of the active policy backend, or "" before any
// install.
func (e *Engine) Backend() string {
	e.lock()
	defer e.unlock()
	return e.backend
}

// Reset zeroes the engine's counters, returning it to the statistical state
// of a freshly constructed engine. The installed table, mode source, cycle
// model and attached auditor are kept: a reset engine decides exactly as it
// did before.
func (e *Engine) Reset() {
	e.lock()
	e.stats = Stats{}
	e.unlock()
}

// Snapshot captures an engine's mutable decision state — the statistics and
// the single-owner resolved-table cache — for the attack arena's prefix
// checkpointing. The installed table and its source are deliberately not
// captured: no install runs inside a checkpoint window (regime
// provisioning happens before the capture), so they are invariant across
// every restore, and the cache fields re-resolve against the same table.
type Snapshot struct {
	stats      Stats
	backend    string
	cacheTable *policy.NodeTable
	cacheMode  policy.Mode
	cacheMT    policy.ModeTable
}

// Backend returns the policy backend that was active at capture time.
func (s *Snapshot) Backend() string { return s.backend }

// ErrBackendMismatch reports a checkpoint restored onto an engine running a
// different policy backend: the captured cache state would silently mix
// enforcement forms, so the restore fails fast instead.
var ErrBackendMismatch = errors.New("hpe: snapshot backend mismatch")

// Snapshot captures the engine's mutable state into dst.
func (e *Engine) Snapshot(dst *Snapshot) {
	e.lock()
	dst.stats = e.stats
	dst.backend = e.backend
	e.unlock()
	dst.cacheTable = e.cacheTable
	dst.cacheMode = e.cacheMode
	dst.cacheMT = e.cacheMT
}

// RestoreFrom rewinds the engine to a state captured by Snapshot. A restored
// engine decides and counts byte-identically to one that replayed the
// captured prefix after a Reset + ReinstallEnforcer. The snapshot carries the
// identity of the backend that was active at capture time; restoring it
// onto an engine running a different backend returns ErrBackendMismatch.
func (e *Engine) RestoreFrom(src *Snapshot) error {
	e.lock()
	if e.backend != src.backend {
		have := e.backend
		e.unlock()
		return fmt.Errorf("%w: engine %q runs %q, snapshot captured under %q",
			ErrBackendMismatch, e.subject, have, src.backend)
	}
	e.stats = src.stats
	e.unlock()
	e.cacheTable = src.cacheTable
	e.cacheMode = src.cacheMode
	e.cacheMT = src.cacheMT
	return nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.lock()
	defer e.unlock()
	return e.stats
}

// CycleModel returns the engine's cycle cost model.
func (e *Engine) CycleModel() CycleModel { return e.cycles }

// Decide implements canbus.InlineFilter: it consults the approved reading
// list for inbound frames and the approved writing list for outbound
// frames, granting only identifiers present for the current mode.
func (e *Engine) Decide(dir canbus.Direction, f canbus.Frame) canbus.Verdict {
	verdict := canbus.Block
	if t := e.table.Load(); t != nil {
		var mt policy.ModeTable
		mode := e.modes.Mode()
		if e.single && t == e.cacheTable && mode == e.cacheMode {
			mt = e.cacheMT
		} else {
			mt = t.Table(mode)
			if e.single {
				e.cacheTable, e.cacheMode, e.cacheMT = t, mode, mt
			}
		}
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

	// Lock branches inlined by hand: the helper calls showed up in fleet
	// profiles at one call per frame per node.
	if !e.single {
		e.mu.Lock()
	}
	e.stats.Decisions++
	e.stats.Cycles += e.perDecision
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
	auditor := e.auditor
	if !e.single {
		e.mu.Unlock()
	}
	if verdict == canbus.Block && auditor != nil {
		auditor.record(e.subject, dir, e.modes.Mode(), f)
	}
	return verdict
}

// Deploy attaches engines to every listed node of a bus and installs the
// compiled policy into each: DeployEnforcer on the table backend.
func Deploy(bus *canbus.Bus, compiled *policy.Compiled, modes ModeSource, cycles CycleModel, nodeNames ...string) (map[string]*Engine, error) {
	if compiled == nil {
		return nil, fmt.Errorf("hpe: nil compiled policy")
	}
	return DeployEnforcer(bus, ir.WrapCompiled(compiled), modes, cycles, nodeNames...)
}

// DeployEnforcer attaches engines to every listed node of a bus and
// installs the enforcer's approved lists into each. It returns the engines
// keyed by node name.
func DeployEnforcer(bus *canbus.Bus, enf ir.Enforcer, modes ModeSource, cycles CycleModel, nodeNames ...string) (map[string]*Engine, error) {
	engines := make(map[string]*Engine, len(nodeNames))
	for _, name := range nodeNames {
		node, ok := bus.Node(name)
		if !ok {
			return nil, fmt.Errorf("hpe: node %q not attached to bus", name)
		}
		eng := New(name, modes, cycles)
		if err := eng.InstallEnforcer(enf); err != nil {
			return nil, err
		}
		node.SetInlineFilter(eng)
		engines[name] = eng
	}
	return engines, nil
}
