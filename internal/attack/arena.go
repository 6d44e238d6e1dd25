package attack

import (
	"repro/internal/behaviour"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/hpe"
)

// Arena is the harness's reusable-vehicle mode: one car and one
// pre-installed policy engine per node, constructed once and reset in place
// between runs. Running a scenario through an arena produces a Result
// byte-identical to Harness.Run on a fresh car — the fleet engine's
// determinism tests assert exactly that — while skipping the full topology
// rebuild (scheduler, bus, eight nodes, eight engines) the fresh path pays
// per scenario×regime cell.
//
// An Arena is single-owner, like the simulation substrate it wraps: all
// methods must be called from one goroutine at a time. The fleet engine
// gives every goroutine that runs cells its own arena.
type Arena struct {
	h       *Harness
	car     *car.Car
	engines []*hpe.Engine       // index-aligned with car.AllNodes
	guards  []*behaviour.Engine // same alignment; wrap engines for EnforceBehaviour
	nodes   []*canbus.Node      // same alignment; stable across car resets
	inj     injectPool          // recycled injection bursts, reset per run
	ckpt    checkpoint          // reusable prefix checkpoint (batched sweeps)
}

// NewArena builds the reusable vehicle stack: the car topology and one
// policy engine per node, each with the harness's compiled policy
// installed.
func (h *Harness) NewArena() (*Arena, error) {
	c, err := car.New(car.Config{})
	if err != nil {
		return nil, err
	}
	// Outside-attacker scenarios attach a rogue node per cell; recycling the
	// shells keeps the thousands of per-cell attach/detach cycles of a fleet
	// sweep allocation-free. Safe here: the arena drops every node reference
	// between cells.
	c.Bus().SetRecycleRogues(true)
	engines := make([]*hpe.Engine, len(car.AllNodes))
	guards := make([]*behaviour.Engine, len(car.AllNodes))
	nodes := make([]*canbus.Node, len(car.AllNodes))
	for i, name := range car.AllNodes {
		eng := hpe.New(name, c)
		if err := eng.InstallEnforcer(h.Enforcer); err != nil {
			return nil, err
		}
		engines[i] = eng
		guards[i] = newBehaviourGuard(c, eng)
		nodes[i], _ = c.Node(name)
	}
	return &Arena{h: h, car: c, engines: engines, guards: guards, nodes: nodes}, nil
}

// Car returns the arena's vehicle, for callers (the fleet engine's live
// background simulation) that drive it directly between scenario runs.
func (a *Arena) Car() *car.Car { return a.car }

// SetSeed does nothing: cells run without bus error injection, so no cell
// reads a seed (see Harness).
//
// Deprecated: kept only for callers that still set a per-vehicle seed;
// drop the call.
func (a *Arena) SetSeed(uint64) {}

// deployEngines resets every pooled engine's counters and attaches each
// engine as its node's inline filter — the pooled equivalent of hpe.Deploy.
// NewArena installed the harness's enforcer once; Reset keeps that table
// and its Installs count, so a pooled engine counts like a deployed one.
func (a *Arena) deployEngines() {
	for i, n := range a.nodes {
		a.engines[i].Reset()
		n.SetInlineFilter(a.engines[i])
	}
}

// StartLive resets the arena's car with cfg and provisions the pooled
// policy engines on every node: the reusable equivalent of car.New followed
// by hpe.Deploy, used for live background simulations.
func (a *Arena) StartLive(cfg car.Config) (*car.Car, error) {
	a.car.Reset(cfg)
	a.deployEngines()
	return a.car, nil
}

// resetForRegime resets the pooled car and provisions the requested
// enforcement regime, leaving the vehicle exactly as a scenario run expects
// to find it. Factored out of Run so the batched path can provision once per
// (prefix, regime) pair instead of once per cell.
func (a *Arena) resetForRegime(enf Enforcement) {
	a.car.Reset(car.Config{})
	switch enf {
	case EnforceHPE:
		a.deployEngines()
	case EnforceBehaviour:
		a.deployEngines()
		// Layer the pooled behavioural guards over the freshly re-provisioned
		// identifier engines; Reset clears their rate windows so a reused
		// guard decides exactly like the fresh path's per-run guards.
		for i, n := range a.nodes {
			a.guards[i].Reset()
			n.SetInlineFilter(a.guards[i])
		}
	case EnforceNone:
		for _, n := range a.nodes {
			n.Controller().SetFilters()
		}
	}
}

// Run executes one scenario under one enforcement regime on the pooled
// vehicle, resetting it first. Results match Harness.Run on a fresh car.
func (a *Arena) Run(sc Scenario, enf Enforcement) (Result, error) {
	a.resetForRegime(enf)
	return a.h.execute(a.car, sc, enf, &a.inj)
}

// checkpoint captures the arena's complete post-prefix state: the car
// substrate (scheduler clock, bus, nodes, vehicle state) plus every pooled
// policy engine and behavioural guard the active regime consults. One
// checkpoint per arena is enough — buckets are processed sequentially and
// each (prefix, regime) pair overwrites it in place, so steady-state batched
// sweeps capture without allocating.
type checkpoint struct {
	car     car.Snapshot
	engines []hpe.Snapshot
	guards  []behaviour.Snapshot
}

// capture snapshots the arena into ck. Engine and guard state is captured
// only for the regimes that consult it: under EnforceNone/EnforceSoftware no
// inline filter is installed, so their (stale, unread) state cannot affect a
// forked cell. A violated quiescence precondition returns ErrNotQuiescent,
// the retryable fault the sweep supervisor quarantines, instead of
// capturing state the restore could not faithfully reproduce.
func (a *Arena) capture(ck *checkpoint, enf Enforcement) error {
	if !a.car.Quiescent() {
		return ErrNotQuiescent
	}
	a.car.Snapshot(&ck.car)
	if enf == EnforceHPE || enf == EnforceBehaviour {
		if ck.engines == nil {
			ck.engines = make([]hpe.Snapshot, len(a.engines))
		}
		for i, e := range a.engines {
			e.Snapshot(&ck.engines[i])
		}
	}
	if enf == EnforceBehaviour {
		if ck.guards == nil {
			ck.guards = make([]behaviour.Snapshot, len(a.guards))
		}
		for i, g := range a.guards {
			g.Snapshot(&ck.guards[i])
		}
	}
	return nil
}

// restore rewinds the arena to ck. A restored arena runs a scenario tail
// byte-identically to one that replayed the whole prefix from resetForRegime
// — the contract the checkpoint property tests assert. It fails (with
// hpe.ErrBackendMismatch) when the checkpoint was captured under a
// different policy backend than the engines now run.
func (a *Arena) restore(ck *checkpoint, enf Enforcement) error {
	a.car.RestoreFrom(&ck.car)
	if enf == EnforceHPE || enf == EnforceBehaviour {
		for i, e := range a.engines {
			if err := e.RestoreFrom(&ck.engines[i]); err != nil {
				return err
			}
		}
	}
	if enf == EnforceBehaviour {
		for i, g := range a.guards {
			g.RestoreFrom(&ck.guards[i])
		}
	}
	return nil
}
