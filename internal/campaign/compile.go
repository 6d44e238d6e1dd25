package campaign

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/car"
	"repro/internal/engine"
	"repro/internal/policy"
)

// maxFamilyScenarios bounds one generator's expansion so a compact spec
// cannot declare an unsweepable cross-product by accident.
const maxFamilyScenarios = 100_000

// Plan is a compiled campaign: executable scenario families plus the
// enforcement regimes each is swept under.
type Plan struct {
	// Spec is the source definition.
	Spec *Spec
	// Regimes is the campaign-level sweep, in spec order.
	Regimes []attack.Enforcement
	// Families are the expanded generators, in declaration order.
	Families []Family
}

// Family is one generator's expansion.
type Family struct {
	// Name and Kind echo the generator.
	Name string
	Kind string
	// Seed is the family's SplitMix64 sub-seed (drives pick sampling and
	// the per-family fleet root during a sweep).
	Seed uint64
	// Regimes is the family's enforcement sweep.
	Regimes []attack.Enforcement
	// Scenarios are the generated attack cells, in generation order.
	Scenarios []attack.Scenario
}

// ScenariosPerVehicle totals generated scenarios across families: the
// campaign's per-vehicle scenario count.
func (p *Plan) ScenariosPerVehicle() int {
	n := 0
	for i := range p.Families {
		n += len(p.Families[i].Scenarios)
	}
	return n
}

// CellsPerVehicle totals scenario×regime cells across families.
func (p *Plan) CellsPerVehicle() int {
	n := 0
	for i := range p.Families {
		n += len(p.Families[i].Scenarios) * len(p.Families[i].Regimes)
	}
	return n
}

// Matrix renders the generated scenario matrix without running it — the
// carsim -list-scenarios view.
func (p *Plan) Matrix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q v%d: %d families, %d scenarios/vehicle, %d cells/vehicle\n",
		p.Spec.Name, p.Spec.Version, len(p.Families), p.ScenariosPerVehicle(), p.CellsPerVehicle())
	for fi := range p.Families {
		f := &p.Families[fi]
		fmt.Fprintf(&b, "family %s (%s): %d scenarios, seed %#016x, regimes %s\n",
			f.Name, f.Kind, len(f.Scenarios), f.Seed, regimeNames(f.Regimes))
		for i := range f.Scenarios {
			sc := &f.Scenarios[i]
			fmt.Fprintf(&b, "  %-58s %-7s %-18s %-10s inj=%d", sc.Name,
				sc.Placement, sc.Attacker, sc.Mode, len(sc.Injections))
			if len(sc.Coattackers) > 0 {
				fmt.Fprintf(&b, " co=%d", len(sc.Coattackers))
			}
			if len(sc.Stages) > 0 {
				fmt.Fprintf(&b, " stages=%d", len(sc.Stages))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func regimeNames(regimes []attack.Enforcement) string {
	parts := make([]string, len(regimes))
	for i, r := range regimes {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// capProduct enforces the family-size cap on a cross-product of axis
// lengths, multiplying incrementally and bailing as soon as the running
// product exceeds it: axis lengths are unbounded (duplicates are legal), so
// a single product expression could overflow int and slip a gigantic family
// past the cap as a small or negative number.
func capProduct(dims ...int) error {
	product := 1
	for _, n := range dims {
		product *= n
		if product > maxFamilyScenarios {
			return fmt.Errorf("cross-product exceeds the %d cap", maxFamilyScenarios)
		}
	}
	return nil
}

// splitmix advances a SplitMix64 state and returns the next output: the
// deterministic stream behind pick sampling. Sub-seed *derivation* reuses
// engine.VehicleSeed so the whole stack shares one mixing primitive.
func splitmix(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// prefixKey derives a scenario prefix-sharing key from a family seed and a
// bucket ordinal, reusing the stack's shared mixing primitive. A zero result
// would read as "no sharing" to attack.PlanBatches, so the (astronomically
// unlikely) zero derivation is remapped.
func prefixKey(famSeed uint64, bucket int) uint64 {
	k := engine.VehicleSeed(famSeed, bucket)
	if k == 0 {
		k = 1
	}
	return k
}

// Compiler lowers a Spec into a Plan of executable attack.Scenario cells.
// Mutate generators draw their bases from attack.Scenarios(), the Table I
// set.
type Compiler struct{}

// Compile expands every generator. The expansion is a pure function of the
// spec: same spec, same plan, regardless of host, worker count or prior
// compilations.
func (Compiler) Compile(sp *Spec) (*Plan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	bases := attack.Scenarios()
	p := &Plan{Spec: sp, Regimes: toRegimes(sp.Regimes)}
	for i := range sp.Generators {
		g := &sp.Generators[i]
		fam := Family{
			Name:    g.Name,
			Kind:    g.Kind,
			Seed:    engine.VehicleSeed(sp.Seed, i),
			Regimes: p.Regimes,
		}
		if len(g.Regimes) > 0 {
			fam.Regimes = toRegimes(g.Regimes)
		}
		var err error
		switch g.Kind {
		case KindMutate:
			fam.Scenarios, err = expandMutate(g, bases, fam.Seed)
		case KindFlood:
			fam.Scenarios, err = expandFlood(g)
		case KindStaged:
			fam.Scenarios, err = expandStaged(g)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign %q generator %q: %w", sp.Name, g.Name, err)
		}
		if g.Kind == KindFlood || g.Kind == KindStaged {
			// Flood and staged cells carry no Setup: their pre-attack prefix
			// is reset + regime provisioning alone, identical across the whole
			// family, so the family shares one prefix bucket. (Mutate families
			// key per base inside expandMutate — variants inherit their base's
			// Setup, and different bases prepare different vehicle state.)
			key := prefixKey(fam.Seed, 0)
			for si := range fam.Scenarios {
				fam.Scenarios[si].PrefixKey = key
			}
		}
		if len(fam.Scenarios) == 0 {
			return nil, fmt.Errorf("campaign %q generator %q: expansion produced no scenarios", sp.Name, g.Name)
		}
		p.Families = append(p.Families, fam)
	}
	return p, nil
}

// toRegimes maps validated regime words to enforcement values; an empty
// list yields the paper's baseline-vs-defence default.
func toRegimes(words []string) []attack.Enforcement {
	if len(words) == 0 {
		return []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE}
	}
	out := make([]attack.Enforcement, len(words))
	for i, w := range words {
		switch w {
		case "none":
			out[i] = attack.EnforceNone
		case "software":
			out[i] = attack.EnforceSoftware
		case "hpe":
			out[i] = attack.EnforceHPE
		case "behaviour":
			out[i] = attack.EnforceBehaviour
		}
	}
	return out
}

// resolvePlacement maps a placement word onto the attacker model, keeping
// the baseline's when unset.
func resolvePlacement(word string, base attack.Placement) attack.Placement {
	switch word {
	case "inside":
		return attack.Inside
	case "outside":
		return attack.Outside
	default:
		return base
	}
}

// isCatalogNode reports whether name is a legitimate Fig. 2 station.
func isCatalogNode(name string) bool {
	for _, n := range car.AllNodes {
		if n == name {
			return true
		}
	}
	return false
}

// orDefault returns vals, or a single-element "keep the baseline" axis.
func orDefault(vals []string) []string {
	if len(vals) == 0 {
		return []string{""}
	}
	return vals
}

// expandMutate enumerates the cross-product of the declared axes over the
// selected baselines, skipping combos that are not placeable (an inside
// attacker must be a catalog node), then optionally samples `pick` combos
// with the family seed (a partial Fisher–Yates pass, deterministic).
func expandMutate(g *GeneratorSpec, bases []attack.Scenario, famSeed uint64) ([]attack.Scenario, error) {
	selected := bases
	if g.Base != "" {
		sc, ok := BaseFor(bases, g.Base)
		if !ok {
			return nil, fmt.Errorf("unknown base threat %q", g.Base)
		}
		selected = []attack.Scenario{sc}
	}
	attackers := orDefault(g.Attackers)
	placements := orDefault(g.Placements)
	modes := orDefault(g.Modes)
	repeats := g.Repeats
	if len(repeats) == 0 {
		repeats = []int{0}
	}
	gaps := g.Gaps
	if len(gaps) == 0 {
		gaps = []Duration{0}
	}
	payloads := g.Payloads
	if len(payloads) == 0 {
		payloads = []HexBytes{nil}
	}

	if err := capProduct(len(selected), len(attackers), len(placements),
		len(modes), len(repeats), len(gaps), len(payloads)); err != nil {
		return nil, err
	}

	var out []attack.Scenario
	combo := 0
	for bi := range selected {
		base := &selected[bi]
		// Every variant of one base inherits the base's Setup (mutateScenario
		// copies the scenario struct), so all of them share an identical
		// pre-attack prefix: one prefix bucket per base. The key survives the
		// pick shuffle below — attack.PlanBatches groups by key, it does not
		// require bucket siblings to stay adjacent.
		key := prefixKey(famSeed, bi)
		for _, att := range attackers {
			for _, plc := range placements {
				for _, mode := range modes {
					for _, rep := range repeats {
						for _, gap := range gaps {
							for _, pay := range payloads {
								combo++
								sc, ok := mutateScenario(g, base, combo-1, att, plc, mode, rep, gap, pay)
								if ok {
									sc.PrefixKey = key
									out = append(out, sc)
								}
							}
						}
					}
				}
			}
		}
	}
	return samplePick(out, g.Pick, famSeed), nil
}

// BaseFor finds a baseline scenario by threat ID in a catalog — shared by
// mutate expansion here and by risk synthesis, so the two halves of the
// threat-grounding contract can never diverge on the lookup rule.
func BaseFor(bases []attack.Scenario, threatID string) (attack.Scenario, bool) {
	for _, sc := range bases {
		if sc.ThreatID == threatID {
			return sc, true
		}
	}
	return attack.Scenario{}, false
}

// mutateScenario derives one variant from a baseline; ok is false when the
// combo is not placeable.
func mutateScenario(g *GeneratorSpec, base *attack.Scenario, combo int,
	att, plc, mode string, rep int, gap Duration, pay HexBytes) (attack.Scenario, bool) {

	placement := resolvePlacement(plc, base.Placement)
	attacker := att
	if attacker == "" {
		attacker = base.Attacker
	}
	switch placement {
	case attack.Inside:
		// An inside attacker is a compromised *existing* station.
		if !isCatalogNode(attacker) {
			return attack.Scenario{}, false
		}
	case attack.Outside:
		// An outside attacker is a new rogue node; it may not shadow a
		// catalog station's name on the bus.
		if isCatalogNode(attacker) {
			attacker = "Rogue-" + attacker
		}
	}

	sc := *base
	sc.Name = fmt.Sprintf("%s#%04d %s %s@%s", g.Name, combo, base.ThreatID, attacker, placement)
	sc.Placement = placement
	sc.Attacker = attacker
	if mode != "" {
		sc.Mode = policy.Mode(mode)
	}
	sc.SkipProbe = g.NoProbe
	sc.Injections = append([]attack.Injection(nil), base.Injections...)
	for i := range sc.Injections {
		if rep > 0 {
			sc.Injections[i].Repeat = rep
		}
		if gap > 0 {
			sc.Injections[i].Gap = time.Duration(gap)
		}
		if len(pay) > 0 {
			sc.Injections[i].Data = pay
		}
	}
	return sc, true
}

// samplePick returns `pick` scenarios drawn without replacement via a
// partial Fisher–Yates shuffle seeded from the family seed; pick <= 0 or
// pick >= len keeps the full set.
func samplePick(scenarios []attack.Scenario, pick int, famSeed uint64) []attack.Scenario {
	if pick <= 0 || pick >= len(scenarios) {
		return scenarios
	}
	state := famSeed
	for i := 0; i < pick; i++ {
		j := i + int(splitmix(&state)%uint64(len(scenarios)-i))
		scenarios[i], scenarios[j] = scenarios[j], scenarios[i]
	}
	return scenarios[:pick:pick]
}

// teamAttacker maps a team member onto an attacker placement: catalog
// stations join as compromised insiders, any other name attaches as an
// outside rogue.
func teamAttacker(name string) attack.Attacker {
	if isCatalogNode(name) {
		return attack.Attacker{Name: name, Placement: attack.Inside}
	}
	return attack.Attacker{Name: name, Placement: attack.Outside}
}

// expandFlood enumerates teams × rates × frame-counts. Every team member
// streams the flooded identifier concurrently (ParallelInjections); the
// goal predicate (default: exfil with the declared threshold) decides
// success.
func expandFlood(g *GeneratorSpec) ([]attack.Scenario, error) {
	rates := g.Rates
	if len(rates) == 0 {
		rates = []Duration{Duration(200 * time.Microsecond)}
	}
	frames := g.Frames
	if len(frames) == 0 {
		frames = []int{40}
	}
	goal, err := goalFunc(g.Goal, "exfil", g.Threshold)
	if err != nil {
		return nil, err
	}
	if err := capProduct(len(g.Teams), len(rates), len(frames)); err != nil {
		return nil, err
	}

	var out []attack.Scenario
	combo := 0
	for _, team := range g.Teams {
		for _, rate := range rates {
			for _, n := range frames {
				primary := teamAttacker(team[0])
				sc := attack.Scenario{
					ThreatID:           g.Name,
					Name:               fmt.Sprintf("%s#%04d team=%s rate=%s frames=%d", g.Name, combo, strings.Join(team, "+"), rate, n),
					Placement:          primary.Placement,
					Attacker:           primary.Name,
					Mode:               car.ModeNormal,
					ParallelInjections: true,
					SkipProbe:          g.NoProbe,
					Succeeded:          goal,
				}
				for _, member := range team {
					if member != team[0] {
						sc.Coattackers = append(sc.Coattackers, teamAttacker(member))
					}
					sc.Injections = append(sc.Injections, attack.Injection{
						ID:     g.ID,
						Data:   g.Payload,
						Repeat: n,
						Gap:    time.Duration(rate),
						From:   member,
					})
				}
				out = append(out, sc)
				combo++
			}
		}
	}
	return out, nil
}

// goalFunc resolves the success predicate: the exfil goal is parameterised
// by threshold, every other predicate is used as-is.
func goalFunc(name, dflt string, threshold int) (func(car.State) bool, error) {
	if name == "" {
		name = dflt
	}
	if name == "exfil" {
		min := threshold
		if min < 1 {
			min = 1
		}
		return func(s car.State) bool { return s.ExfilReports >= min }, nil
	}
	fn, ok := predicates[name]
	if !ok {
		return nil, fmt.Errorf("unknown goal predicate %q", name)
	}
	return fn, nil
}

// expandStaged enumerates attackers × placements × modes variants of the
// declared stage chain. Stage injections may transmit from coattackers
// (From); any From name that is not the variant's primary attacker is
// auto-placed by catalog membership.
func expandStaged(g *GeneratorSpec) ([]attack.Scenario, error) {
	placements := g.Placements
	if len(placements) == 0 {
		placements = []string{"inside"}
	}
	modes := g.Modes
	if len(modes) == 0 {
		modes = []string{string(car.ModeNormal)}
	}
	goal, err := goalFunc(g.Goal, "", g.Threshold)
	if err != nil {
		return nil, err
	}
	if err := capProduct(len(g.Attackers), len(placements), len(modes)); err != nil {
		return nil, err
	}

	var out []attack.Scenario
	combo := 0
	for _, att := range g.Attackers {
		for _, plc := range placements {
			for _, mode := range modes {
				combo++
				placement := resolvePlacement(plc, attack.Inside)
				attacker := att
				if placement == attack.Inside && !isCatalogNode(attacker) {
					continue // not placeable: insiders are catalog stations
				}
				if placement == attack.Outside && isCatalogNode(attacker) {
					attacker = "Rogue-" + attacker
				}
				sc := attack.Scenario{
					ThreatID:  g.Name,
					Name:      fmt.Sprintf("%s#%04d %s@%s %s", g.Name, combo-1, attacker, placement, mode),
					Placement: placement,
					Attacker:  attacker,
					Mode:      policy.Mode(mode),
					SkipProbe: g.NoProbe,
					Succeeded: goal,
				}
				for _, stSpec := range g.Stages {
					st := attack.Stage{Name: stSpec.Name}
					if stSpec.Proceed != "" && stSpec.Proceed != "always" {
						st.Proceed = predicates[stSpec.Proceed]
					}
					for _, inj := range stSpec.Injections {
						// A From naming this variant's attacker — by its axis
						// name or its renamed rogue form — routes to the
						// primary; anything else joins as a coattacker. (An
						// outside variant renames catalog attackers, so
						// comparing the renamed form alone would demote the
						// primary to a spurious *inside* coattacker.)
						from := inj.From
						if from == att || from == attacker {
							from = ""
						} else if from != "" {
							addCoattacker(&sc, from)
						}
						st.Injections = append(st.Injections, attack.Injection{
							ID:     inj.ID,
							Data:   inj.Data,
							Repeat: inj.Repeat,
							Gap:    time.Duration(inj.Gap),
							From:   from,
						})
					}
					sc.Stages = append(sc.Stages, st)
				}
				out = append(out, sc)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no placeable attacker variants (insiders must be catalog stations)")
	}
	return out, nil
}

// addCoattacker registers a From name as a coattacker once per scenario.
func addCoattacker(sc *attack.Scenario, name string) {
	for _, co := range sc.Coattackers {
		if co.Name == name {
			return
		}
	}
	sc.Coattackers = append(sc.Coattackers, teamAttacker(name))
}
