// Package attack implements the adversarial half of the case study: one
// executable attack scenario per Table I threat, plus a harness that runs a
// scenario against a car under a chosen enforcement regime and measures
// whether the attack's effect materialised. Harness.Run builds a fresh car
// per call; an Arena reuses one pooled vehicle stack across runs with
// identical results (the fleet engine's fast path).
//
// Two attacker placements from §V-B.2 are modelled:
//
//   - Inside attacks launch from a compromised existing node: its firmware is
//     subverted (acceptance filters bypassed) and it transmits forged frames.
//     A deployed HPE still sits between that node's controller and
//     transceiver, so its approved *writing* list curtails the attack.
//   - Outside attacks launch from a malicious node introduced onto the bus.
//     Such a node carries no HPE; the defence is the victims' approved
//     *reading* lists blocking unexpected messages.
//
// Beyond the fixed Table I matrix, scenarios support the constructs the
// campaign generator (internal/campaign) lowers onto this harness:
// coordinated multi-attacker injections (Coattackers + Injection.From),
// per-injection pacing (Injection.Gap, ParallelInjections), multi-stage
// campaigns with predicates gating each stage (Stages), and a fourth
// enforcement regime (EnforceBehaviour) that layers the §V-A behavioural
// rules — a per-node write budget and a payload-aware "no unlock while in
// motion" veto — on top of the identifier HPE.
package attack

import (
	"fmt"
	"time"

	"repro/internal/behaviour"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/hpe"
	"repro/internal/policy"
	"repro/internal/policy/ir"
	"repro/internal/threatmodel"
)

// Placement distinguishes the two attacker models of §V-B.2.
type Placement uint8

// Placements.
const (
	// Inside: a compromised legitimate node.
	Inside Placement = iota + 1
	// Outside: a malicious node introduced onto the bus.
	Outside
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case Inside:
		return "inside"
	case Outside:
		return "outside"
	default:
		return "invalid"
	}
}

// Enforcement selects the defensive configuration under test.
type Enforcement uint8

// Enforcement regimes.
const (
	// EnforceNone removes all filtering beyond CAN's own acceptance
	// filters (which are identifier-based and mode-unaware).
	EnforceNone Enforcement = iota + 1
	// EnforceSoftware relies on the controllers' firmware acceptance
	// filters only; the compromised node's own filters are bypassed.
	EnforceSoftware
	// EnforceHPE deploys a hardware policy engine with the compiled
	// connected-car policy on every legitimate node.
	EnforceHPE
	// EnforceBehaviour deploys the HPE and layers the default behavioural
	// rule set (per-node write budget, payload-aware unlock-in-motion veto)
	// on every legitimate node — the §V-A extension that also stops
	// *approved* writers whose credentials are abused, e.g. a legitimate
	// node flooding its own identifier.
	EnforceBehaviour
)

// String returns the regime name.
func (e Enforcement) String() string {
	switch e {
	case EnforceNone:
		return "none"
	case EnforceSoftware:
		return "software"
	case EnforceHPE:
		return "hpe"
	case EnforceBehaviour:
		return "behaviour"
	default:
		return "invalid"
	}
}

// Injection is one malicious frame sent during a scenario.
type Injection struct {
	// ID and Data form the forged frame.
	ID   uint32
	Data []byte
	// Repeat sends the frame this many times (min 1).
	Repeat int
	// Gap is the virtual-time spacing between repeats (stepTime if zero) —
	// the knob flood scenarios turn to exceed behavioural rate budgets.
	Gap time.Duration
	// From names the transmitting attacker: empty for the scenario's primary
	// attacker, otherwise one of its Coattackers.
	From string
}

// Attacker is one additional attacker placement for coordinated
// multi-attacker scenarios; injections reference it via Injection.From.
type Attacker struct {
	// Name is the compromised node (Inside) or the rogue node to attach
	// (Outside).
	Name string
	// Placement selects the attacker model.
	Placement Placement
}

// Stage is one phase of a multi-stage campaign scenario (recon → injection →
// persistence). Stages run in order after the scenario's base injections;
// each stage's predicate is evaluated against the observable state the
// previous phases produced.
type Stage struct {
	// Name labels the stage.
	Name string
	// Proceed gates the stage: evaluated before its injections fire; false
	// halts the scenario (remaining stages are skipped). nil means always.
	Proceed func(s car.State) bool
	// Injections are the stage's forged frames.
	Injections []Injection
}

// Scenario is one executable Table I attack.
type Scenario struct {
	// ThreatID links to the rated threat (car.Threat* constants).
	ThreatID string
	// Name is a short human-readable label.
	Name string
	// Placement selects inside/outside attacker.
	Placement Placement
	// Attacker names the compromised node (Inside) or the rogue node to
	// attach (Outside).
	Attacker string
	// Mode is the car mode during the attack.
	Mode policy.Mode
	// Setup prepares vehicle state before injection (lock doors, crash...).
	Setup func(c *car.Car) error
	// Injections are the forged frames.
	Injections []Injection
	// Coattackers are additional attacker placements for coordinated
	// multi-attacker scenarios; Injections select them via From.
	Coattackers []Attacker
	// ParallelInjections schedules every injection spec from the same start
	// instant (coordinated streams) instead of sequentially.
	ParallelInjections bool
	// Stages are optional campaign phases run after Injections, each gated
	// by its predicate.
	Stages []Stage
	// SkipProbe skips the post-attack functional probe (LegitimateOK is then
	// reported true): bulk campaign families trade false-positive
	// measurement for sweep throughput.
	SkipProbe bool
	// PrefixKey groups scenarios that share an identical pre-attack prefix
	// (same Setup func, or none): PlanBatches buckets equal non-zero keys so
	// the arena replays the prefix once per regime and forks every bucketed
	// cell from a checkpoint. Zero (the default) opts the scenario out of
	// prefix sharing; it always runs standalone.
	PrefixKey uint64
	// Succeeded inspects post-attack state: true means the attack achieved
	// its effect.
	Succeeded func(s car.State) bool
}

// Result is the measured outcome of one scenario run.
type Result struct {
	// ThreatID and Name echo the scenario.
	ThreatID string
	Name     string
	// Enforcement echoes the regime under test.
	Enforcement Enforcement
	// Placement echoes the attacker model.
	Placement Placement
	// Injected counts malicious frames the attacker attempted.
	Injected int
	// WriteBlocked counts frames stopped at the attacker's write filter.
	WriteBlocked uint64
	// ReadBlocked counts frames stopped at victims' read filters.
	ReadBlocked uint64
	// Succeeded reports whether the attack achieved its effect.
	Succeeded bool
	// LegitimateOK reports whether the post-attack functional probe passed
	// (no false positives introduced by enforcement). Scenarios with
	// SkipProbe report true.
	LegitimateOK bool
	// StagesRun counts campaign stages whose predicate held and whose
	// injections fired (0 for single-stage scenarios).
	StagesRun int
	// Halted reports that a stage predicate failed and stopped the campaign
	// scenario early.
	Halted bool
}

// String renders a one-line summary.
func (r Result) String() string {
	out := "BLOCKED"
	if r.Succeeded {
		out = "SUCCEEDED"
	}
	return fmt.Sprintf("%-8s %-42s %-8s %-7s injected=%d wblk=%d rblk=%d -> %s",
		r.ThreatID, r.Name, r.Enforcement, r.Placement, r.Injected, r.WriteBlocked, r.ReadBlocked, out)
}

// Harness runs scenarios against fresh cars. Every car a cell runs on is
// built or reset with car.Config{}: no bus error injection, so nothing
// draws from the bus RNG and a cell's Result depends only on the scenario,
// the regime and the policy. The fleet engine's stamp rests on that.
type Harness struct {
	// Compiled is the policy's table form. It is always populated — report
	// views render approved lists from it — even when a non-table backend
	// enforces.
	Compiled *policy.Compiled
	// Enforcer is the compiled policy the HPEs install under EnforceHPE:
	// Compiled itself on the table backend (ir.WrapCompiled, so nothing
	// compiles twice), the named backend's enforcer otherwise.
	Enforcer ir.Enforcer
	// Cycles is the HPE cycle model.
	Cycles hpe.CycleModel
}

// NewHarness derives and compiles the connected-car policy (via the
// threat-modelling pipeline) and returns a ready harness on the default
// table backend.
func NewHarness() (*Harness, error) { return NewHarnessBackend("") }

// NewHarnessBackend is NewHarness with the enforcement backend selected by
// name ("table", "expr", "closure"; empty = table). The table artifact is
// compiled either way — report views and the software-filter regime read
// approved lists from it — but under a non-table backend the policy engines
// decide through the named backend's compiled enforcer.
func NewHarnessBackend(backend string) (*Harness, error) {
	analysis, err := car.Analyze()
	if err != nil {
		return nil, err
	}
	set, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		return nil, err
	}
	return NewHarnessFromSet(set, backend)
}

// NewHarnessFromSet builds a harness enforcing exactly the given policy set
// under the named backend — the constructor gate sweeps use to measure a
// candidate policy (an OTA bundle's verified set) on the simulated fleet
// before any real vehicle installs it. NewHarnessBackend is this applied to
// the analysis-derived Table I set.
func NewHarnessFromSet(set *policy.Set, backend string) (*Harness, error) {
	opts := policy.CompileOptions{
		Subjects: car.AllNodes,
		Modes:    car.AllModes,
	}
	compiled, err := policy.Compile(set, opts)
	if err != nil {
		return nil, err
	}
	h := &Harness{Compiled: compiled, Enforcer: ir.WrapCompiled(compiled), Cycles: hpe.DefaultCycleModel()}
	if backend != "" && backend != ir.DefaultBackend {
		opts.Backend = backend
		if h.Enforcer, err = ir.Build(set, opts); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// DeployEngines attaches policy engines running the harness's enforcer to
// the named bus nodes.
func (h *Harness) DeployEngines(bus *canbus.Bus, modes hpe.ModeSource, nodeNames ...string) (map[string]*hpe.Engine, error) {
	return hpe.DeployEnforcer(bus, h.Enforcer, modes, h.Cycles, nodeNames...)
}

// stepTime spaces injected frames apart on the virtual clock.
const stepTime = 2 * time.Millisecond

// Run executes one scenario under one enforcement regime on a fresh car and
// returns the measured result. For repeated runs, an Arena amortises the
// vehicle construction this path repeats per call.
func (h *Harness) Run(sc Scenario, enf Enforcement) (Result, error) {
	return h.Trace(sc, enf, nil)
}

// Trace is Run with fn installed as the fresh car's bus tracer (nil traces
// nothing): fn sees every bus event of the cell, from the scenario's setup
// through the injections and stages to the functional probe.
func (h *Harness) Trace(sc Scenario, enf Enforcement, fn func(canbus.TraceEvent)) (Result, error) {
	c, err := car.New(car.Config{})
	if err != nil {
		return Result{}, err
	}
	c.Bus().SetTracer(fn)
	switch enf {
	case EnforceHPE:
		if _, err := h.DeployEngines(c.Bus(), c, car.AllNodes...); err != nil {
			return Result{}, err
		}
	case EnforceBehaviour:
		engines, err := h.DeployEngines(c.Bus(), c, car.AllNodes...)
		if err != nil {
			return Result{}, err
		}
		for _, name := range car.AllNodes {
			node, _ := c.Node(name)
			node.SetInlineFilter(newBehaviourGuard(c, engines[name]))
		}
	}
	stripFilters(c, enf)
	return h.execute(c, sc, enf, nil)
}

// Default behavioural rule parameters: any single node may transmit at most
// behaviourWriteBudget frames per sliding behaviourWindow. The budget sits
// comfortably above every legitimate burst in the harness (setup + probe +
// Table I injection trains) and far below campaign flood rates.
const (
	behaviourWriteBudget = 8
	behaviourWindow      = 10 * time.Millisecond
)

// unlockInMotion is the payload-aware situational rule of §V-A: it vetoes
// door-unlock commands while the vehicle is moving, but lets lock commands
// and parked unlocks through. It inspects the opcode byte, which the generic
// behaviour.SituationalDeny (identifier-granular) cannot.
type unlockInMotion struct{ c *car.Car }

// Name implements behaviour.Rule.
func (r unlockInMotion) Name() string { return "no-unlock-in-motion" }

// Decide implements behaviour.Rule.
func (r unlockInMotion) Decide(dir canbus.Direction, f canbus.Frame, _ time.Duration) canbus.Verdict {
	if dir == canbus.Read && f.ID == car.IDDoorCommand &&
		len(f.Data) > 0 && f.Data[0] == car.OpUnlock &&
		r.c.State().ActualSpeed > 0 {
		return canbus.Block
	}
	return canbus.Grant
}

// newBehaviourGuard wraps one node's identifier engine in the default
// behavioural rule set, clocked by the car's scheduler. The fresh path
// builds guards per run; the Arena builds them once and resets them.
func newBehaviourGuard(c *car.Car, base canbus.InlineFilter) *behaviour.Engine {
	g := behaviour.New(base, c.Scheduler().Now)
	if err := g.AddRule(&behaviour.RateLimit{
		Label:        "write-budget",
		Direction:    canbus.Write,
		IDs:          policy.Span(0, 0x7FF),
		MaxPerWindow: behaviourWriteBudget,
		Window:       behaviourWindow,
	}); err != nil {
		panic(err) // static rule; fails only on programming errors
	}
	if err := g.AddRule(unlockInMotion{c: c}); err != nil {
		panic(err)
	}
	return g
}

// stripFilters applies the EnforceNone degradation: controllers in
// promiscuous mode, the weakest credible configuration (not even firmware
// acceptance filters).
func stripFilters(c *car.Car, enf Enforcement) {
	if enf != EnforceNone {
		return
	}
	for _, name := range car.AllNodes {
		if n, ok := c.Node(name); ok {
			n.Controller().SetFilters()
		}
	}
}

// execute runs the scenario body on a car whose enforcement regime is
// already applied: setup, mode switch, attacker placement, injection,
// measurement and the functional probe. Shared by the fresh-car path (Run,
// nil pool) and the pooled path (Arena.Run, the arena's burst pool).
//
// It is split into runSetup (the checkpointable prefix) and executeTail (the
// per-cell remainder) so the arena's batched path can replay a shared prefix
// once and fork each cell from a snapshot; this composed form is the oracle
// the batched path must match byte-for-byte.
func (h *Harness) execute(c *car.Car, sc Scenario, enf Enforcement, pool *injectPool) (Result, error) {
	if err := h.runSetup(c, sc); err != nil {
		return Result{}, err
	}
	return h.executeTail(c, sc, enf, pool)
}

// runSetup runs the scenario's preparation phase and drains the scheduler,
// leaving the car quiescent — the instant the arena checkpoints. Scenario
// preparation happens in Normal mode with enforcement already in place:
// legitimate setup actions must pass the policy.
func (h *Harness) runSetup(c *car.Car, sc Scenario) error {
	if sc.Setup != nil {
		if err := sc.Setup(c); err != nil {
			return fmt.Errorf("attack: setup for %s: %w", sc.ThreatID, err)
		}
		c.Scheduler().Run()
	}
	return nil
}

// executeTail runs everything after the checkpointable prefix: mode switch,
// attacker placement, injection, measurement and the functional probe. The
// pool reset lives here (not in execute) so a checkpoint-forked cell recycles
// its bursts exactly like a reset one; runSetup never touches the pool.
func (h *Harness) executeTail(c *car.Car, sc Scenario, enf Enforcement, pool *injectPool) (Result, error) {
	if pool != nil {
		pool.reset()
	}
	res := Result{
		ThreatID:    sc.ThreatID,
		Name:        sc.Name,
		Enforcement: enf,
		Placement:   sc.Placement,
	}
	c.SetMode(sc.Mode)

	attackers, err := placeAttackers(c, sc)
	if err != nil {
		return Result{}, err
	}

	before := c.Bus().Stats()
	if err := scheduleInjections(c, &attackers, sc.Injections, sc.ParallelInjections, &res, pool); err != nil {
		return Result{}, fmt.Errorf("attack: %s: %w", sc.ThreatID, err)
	}
	c.Scheduler().Run()

	// Campaign stages: each runs only if its predicate holds against the
	// state the previous phases produced; a failed predicate halts the
	// scenario (the defence broke the kill chain).
	for i := range sc.Stages {
		st := &sc.Stages[i]
		if st.Proceed != nil && !st.Proceed(c.State()) {
			res.Halted = true
			break
		}
		res.StagesRun++
		if err := scheduleInjections(c, &attackers, st.Injections, sc.ParallelInjections, &res, pool); err != nil {
			return Result{}, fmt.Errorf("attack: %s stage %q: %w", sc.ThreatID, st.Name, err)
		}
		c.Scheduler().Run()
	}

	after := c.Bus().Stats()
	res.WriteBlocked = after.WriteBlocked - before.WriteBlocked
	res.ReadBlocked = after.ReadBlocked - before.ReadBlocked
	res.Succeeded = sc.Succeeded(c.State())

	// Functional probe: legitimate traffic must still work after the attack
	// and under enforcement (switch back to Normal for the probe).
	c.SetMode(car.ModeNormal)
	if sc.SkipProbe {
		res.LegitimateOK = true
	} else {
		res.LegitimateOK = h.probeLegitimate(c)
	}
	return res, nil
}

// placedAttackers resolves Injection.From names to placed bus nodes. The
// common single-attacker case stays allocation-free (nil slices).
type placedAttackers struct {
	primary     *canbus.Node
	primaryName string
	names       []string
	nodes       []*canbus.Node
}

// lookup resolves an injection's From field ("" = primary attacker).
func (p *placedAttackers) lookup(name string) *canbus.Node {
	if name == "" || name == p.primaryName {
		return p.primary
	}
	for i, n := range p.names {
		if n == name {
			return p.nodes[i]
		}
	}
	return nil
}

// placeAttackers places the scenario's primary attacker and every
// coattacker, compromising or attaching each as its placement dictates.
func placeAttackers(c *car.Car, sc Scenario) (placedAttackers, error) {
	primary, err := placeAttacker(c, sc.Attacker, sc.Placement)
	if err != nil {
		return placedAttackers{}, err
	}
	p := placedAttackers{primary: primary, primaryName: sc.Attacker}
	for _, co := range sc.Coattackers {
		if co.Name == sc.Attacker {
			continue
		}
		n, err := placeAttacker(c, co.Name, co.Placement)
		if err != nil {
			return placedAttackers{}, err
		}
		p.names = append(p.names, co.Name)
		p.nodes = append(p.nodes, n)
	}
	return p, nil
}

// placeAttacker returns the node a scenario transmits from.
func placeAttacker(c *car.Car, name string, placement Placement) (*canbus.Node, error) {
	switch placement {
	case Inside:
		node, ok := c.Node(name)
		if !ok {
			return nil, fmt.Errorf("attack: unknown attacker node %q", name)
		}
		// Firmware compromise: the node's own acceptance filters fall.
		node.Controller().CompromiseFilters()
		return node, nil
	case Outside:
		// A malicious node is introduced; it carries no HPE regardless of
		// regime — the defence is on the victims. It has no handler, so it
		// discards inbound traffic (a transmit-only attacker).
		return c.Bus().Attach(name)
	default:
		return nil, fmt.Errorf("attack: invalid placement %d", placement)
	}
}

// burst is one reusable injection emitter: the transmitting node, the forged
// frame with its payload inlined, and a fire event prebound at construction.
// Pooled runs recycle bursts across cells, so scheduling an injection spec
// allocates nothing after the first vehicle — the per-spec frame payload and
// event closure used to be the largest allocation site left in a campaign
// sweep's cell loop.
type burst struct {
	tx   *canbus.Node
	f    canbus.Frame
	data [canbus.MaxDataLen]byte
	fire func(time.Duration)
}

// injectPool recycles bursts within one arena. Reset per scenario run; every
// event scheduled against a burst fires before the run returns, so reuse in
// the next cell can never alias a pending event.
type injectPool struct {
	bursts []*burst
	used   int
}

// next returns a recycled burst, growing the pool on first use.
func (p *injectPool) next() *burst {
	if p.used < len(p.bursts) {
		b := p.bursts[p.used]
		p.used++
		return b
	}
	b := &burst{}
	b.fire = func(time.Duration) {
		// The send is the event's only action, so it may run the
		// arbitration round inline; blocked sends are measured, not errors.
		_ = b.tx.SendFinal(b.f)
	}
	p.bursts = append(p.bursts, b)
	p.used++
	return b
}

// reset makes every burst available again.
func (p *injectPool) reset() { p.used = 0 }

// scheduleInjections queues one phase's injection specs on the virtual
// clock. Sequential mode (the Table I default) chains specs one after
// another; parallel mode starts every spec at the same instant, modelling
// coordinated attacker streams. A nil pool (the fresh-car path) allocates
// the frame and event per spec; a pooled run recycles them.
func scheduleInjections(c *car.Car, attackers *placedAttackers, injections []Injection, parallel bool, res *Result, pool *injectPool) error {
	base := c.Scheduler().Now()
	at := base
	for _, inj := range injections {
		tx := attackers.lookup(inj.From)
		if tx == nil {
			return fmt.Errorf("injection from unplaced attacker %q", inj.From)
		}
		n := inj.Repeat
		if n < 1 {
			n = 1
		}
		gap := inj.Gap
		if gap <= 0 {
			gap = stepTime
		}
		// One shared frame and one shared event per injection spec: Send
		// clones into the transmit queue, so every scheduled repeat can
		// reference the same values instead of allocating per repeat.
		var fire func(time.Duration)
		if pool != nil {
			b := pool.next()
			// Validate against the spec's own payload first, then move it
			// into the burst's inline buffer — same checks as NewDataFrame,
			// no payload allocation.
			b.f = canbus.Frame{ID: inj.ID, Data: inj.Data, DLC: uint8(len(inj.Data))}
			if err := b.f.Validate(); err != nil {
				return fmt.Errorf("bad injection: %w", err)
			}
			if len(inj.Data) == 0 {
				b.f.Data = nil
			} else {
				b.f.Data = b.data[:copy(b.data[:], inj.Data)]
			}
			b.tx = tx
			fire = b.fire
		} else {
			frame, err := canbus.NewDataFrame(inj.ID, inj.Data)
			if err != nil {
				return fmt.Errorf("bad injection: %w", err)
			}
			fire = func(time.Duration) {
				_ = tx.SendFinal(frame)
			}
		}
		start := at
		if parallel {
			start = base
		}
		for i := 0; i < n; i++ {
			start += gap
			res.Injected++
			c.Scheduler().At(start, fire)
		}
		if !parallel {
			at = start
		}
	}
	return nil
}

// probeLegitimate exercises a representative legitimate action and reports
// whether it still works: the sensors' obstacle report must still stop
// propulsion, and the safety module must be able to restore it.
func (h *Harness) probeLegitimate(c *car.Car) bool {
	if err := c.RestorePropulsion(); err != nil {
		return false
	}
	c.Scheduler().Run()
	if !c.State().Propulsion {
		return false
	}
	if err := c.ObstacleStop(); err != nil {
		return false
	}
	c.Scheduler().Run()
	if c.State().Propulsion {
		return false
	}
	if err := c.RestorePropulsion(); err != nil {
		return false
	}
	c.Scheduler().Run()
	return c.State().Propulsion
}

// RunAll executes every scenario under every requested regime.
func (h *Harness) RunAll(scenarios []Scenario, regimes ...Enforcement) ([]Result, error) {
	m, err := h.RunMatrix(scenarios, regimes...)
	if err != nil {
		return nil, err
	}
	return m.Results, nil
}
