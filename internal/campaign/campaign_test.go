package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/car"
)

// testSpec exercises every generator kind and both regime levels.
const testSpec = `
# A compact campaign touching every construct.
campaign "test" version 2 {
  seed 7
  regimes none, hpe

  mutate "ecu-space" {
    base EVECU-1
    attackers Infotainment, Sensors, Telematics
    placements inside, outside
    modes Normal, FailSafe
    repeats 1, 3
    pick 10
    probe off
  }

  flood "exfil" {
    regimes none, hpe, behaviour
    id 0x300
    payload EE01
    team Telematics
    team Telematics, Sensors
    rates 200us
    frames 40
    threshold 10
  }

  staged "takeover" {
    attackers Infotainment, Telematics
    goal firmware-modified
    stage "inject" {
      inject 0x10 01 x 2
    }
    stage "persist" {
      proceed propulsion-off
      inject 0x600 DEAD x 2 every 1ms
    }
  }
}
`

func TestParseRoundTrip(t *testing.T) {
	sp := MustParse(testSpec)
	if sp.Name != "test" || sp.Version != 2 || sp.Seed != 7 {
		t.Fatalf("header mismatch: %+v", sp)
	}
	if len(sp.Generators) != 3 {
		t.Fatalf("expected 3 generators, got %d", len(sp.Generators))
	}
	again, err := Parse(sp.String())
	if err != nil {
		t.Fatalf("canonical rendering does not re-parse: %v\n%s", err, sp.String())
	}
	if !reflect.DeepEqual(sp, again) {
		t.Errorf("render round trip changed the spec:\nfirst  %+v\nsecond %+v", sp, again)
	}
}

func TestParseJSONEquivalence(t *testing.T) {
	sp := MustParse(testSpec)
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse(string(raw))
	if err != nil {
		t.Fatalf("JSON form does not parse: %v\n%s", err, raw)
	}
	if !reflect.DeepEqual(sp, fromJSON) {
		t.Errorf("JSON round trip changed the spec:\nDSL  %+v\nJSON %+v", sp, fromJSON)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	bad := []string{
		``,
		`campaign "x" version 1 {}`, // no generators
		`campaign "x" version 1 { mutate "m" { base NO-SUCH } }`,                // unknown base caught at compile, spec ok — see below
		`campaign "x" version 1 { regimes warp mutate "m" {} }`,                 // unknown regime
		`campaign "x" version 1 { flood "f" {} }`,                               // no teams
		`campaign "x" version 1 { staged "s" { goal always } }`,                 // no attackers
		`campaign "x" version 1 { mutate "m" {} mutate "m" {} }`,                // duplicate family
		`campaign "x" version 1 { staged "s" { attackers A } }`,                 // no goal
		`campaign "x" version 1 { mutate "m" { repeats 0 } }`,                   // bad repeat
		`campaign "x" version 1 { mutate "m" { payloads 010203040506070809 } }`, // >8 bytes
		`{"name":"x","version":1,"generators":[{"kind":"warp","name":"g"}]}`,    // bad kind via JSON
	}
	for i, src := range bad {
		if i == 2 {
			continue // valid spec; compile rejects it (covered below)
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, src)
		}
	}
	if _, err := (Compiler{}).Compile(MustParse(`campaign "x" version 1 { mutate "m" { base NO-SUCH } }`)); err == nil {
		t.Error("expected compile error for unknown base threat")
	}
}

func TestCompileExpansion(t *testing.T) {
	plan, err := (Compiler{}).Compile(MustParse(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Families) != 3 {
		t.Fatalf("expected 3 families, got %d", len(plan.Families))
	}
	m, f, s := &plan.Families[0], &plan.Families[1], &plan.Families[2]
	if len(m.Scenarios) != 10 {
		t.Errorf("mutate pick 10 produced %d scenarios", len(m.Scenarios))
	}
	if len(f.Scenarios) != 2 {
		t.Errorf("flood teams×rates×frames should be 2, got %d", len(f.Scenarios))
	}
	if len(s.Scenarios) != 2 {
		t.Errorf("staged attacker variants should be 2, got %d", len(s.Scenarios))
	}
	if got := plan.ScenariosPerVehicle(); got != 14 {
		t.Errorf("scenarios/vehicle = %d, want 14", got)
	}
	// none,hpe campaign default on mutate/staged; flood overrides with 3.
	if got := plan.CellsPerVehicle(); got != 10*2+2*3+2*2 {
		t.Errorf("cells/vehicle = %d, want %d", got, 10*2+2*3+2*2)
	}
	// Scenario names must be unique across the whole campaign.
	seen := map[string]bool{}
	for _, fam := range plan.Families {
		for _, sc := range fam.Scenarios {
			if seen[sc.Name] {
				t.Errorf("duplicate scenario name %q", sc.Name)
			}
			seen[sc.Name] = true
		}
	}
	// Flood scenarios carry coordinated injection streams.
	two := f.Scenarios[1]
	if len(two.Coattackers) != 1 || !two.ParallelInjections || len(two.Injections) != 2 {
		t.Errorf("two-attacker flood malformed: %+v", two)
	}
	// Outside-placed mutate variants of catalog nodes are renamed rogues.
	for _, sc := range m.Scenarios {
		if sc.Placement == attack.Outside && !strings.HasPrefix(sc.Attacker, "Rogue-") {
			t.Errorf("outside attacker %q not renamed", sc.Attacker)
		}
		if sc.Placement == attack.Inside && !isCatalogNode(sc.Attacker) {
			t.Errorf("inside attacker %q is not a catalog node", sc.Attacker)
		}
		if !sc.SkipProbe {
			t.Errorf("mutate family declared probe off; scenario %q still probes", sc.Name)
		}
	}
}

func TestCompileIsDeterministic(t *testing.T) {
	a, err := (Compiler{}).Compile(MustParse(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := (Compiler{}).Compile(MustParse(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if a.Matrix() != b.Matrix() {
		t.Error("two compilations of the same spec produced different matrices")
	}
	// Different campaign seeds must shuffle the pick sample differently.
	seeded := MustParse(strings.Replace(testSpec, "seed 7", "seed 8", 1))
	c, err := (Compiler{}).Compile(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Matrix() == c.Matrix() {
		t.Error("changing the campaign seed did not change the sampled scenario set")
	}
}

// TestSweepOutcomes runs the full test campaign on a small fleet and checks
// the domain-level expectations: unenforced attacks land, the identifier
// HPE stops the mutated inside attacks but not the approved-writer flood,
// and the behaviour regime caps the flood below its threshold.
func TestSweepOutcomes(t *testing.T) {
	plan, err := (Compiler{}).Compile(MustParse(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(plan, SweepConfig{Fleet: 3, RootSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet != 3 || rep.ScenariosPerVehicle != 14 {
		t.Fatalf("report header mismatch: %+v", rep)
	}
	byRegime := func(f FamilyReport, e attack.Enforcement) attack.Summary {
		for _, rs := range f.Regimes {
			if rs.Regime == e {
				return rs.Summary
			}
		}
		t.Fatalf("family %s has no %s aggregate", f.Name, e)
		return attack.Summary{}
	}
	flood := rep.Families[1]
	if s := byRegime(flood, attack.EnforceNone); s.Succeeded != s.Runs {
		t.Errorf("unenforced flood should always land: %+v", s)
	}
	if s := byRegime(flood, attack.EnforceHPE); s.Succeeded != s.Runs {
		t.Errorf("identifier HPE cannot stop an approved writer's flood: %+v", s)
	}
	if s := byRegime(flood, attack.EnforceBehaviour); s.Blocked != s.Runs {
		t.Errorf("behaviour regime should cap every flood run: %+v", s)
	}
	staged := rep.Families[2]
	if s := byRegime(staged, attack.EnforceNone); s.StageRuns == 0 {
		t.Errorf("unenforced staged chains should run stages: %+v", s)
	}
	if s := byRegime(staged, attack.EnforceHPE); s.StagesHalted != s.Runs {
		t.Errorf("HPE should halt every kill chain at its predicate: %+v", s)
	}
}

// TestPredicateTable sanity-checks the predicate vocabulary against a
// freshly built car state.
func TestPredicateTable(t *testing.T) {
	s := car.MustNew(car.Config{}).State()
	truths := map[string]bool{
		"always": true, "propulsion-on": true, "propulsion-off": false,
		"doors-unlocked": true, "doors-locked": false, "exfil": false,
		"firmware-modified": false, "display-mismatch": false,
	}
	for name, want := range truths {
		if got := predicates[name](s); got != want {
			t.Errorf("predicate %s on power-on state = %v, want %v", name, got, want)
		}
	}
	if len(PredicateNames()) != len(predicates) {
		t.Error("PredicateNames out of sync")
	}
}

// TestDurationAndHexForms pins the compact textual forms.
func TestDurationAndHexForms(t *testing.T) {
	cases := map[Duration]string{
		Duration(200 * time.Microsecond): "200us",
		Duration(2 * time.Millisecond):   "2ms",
		Duration(3 * time.Second):        "3s",
		Duration(1500 * time.Nanosecond): "1500ns",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("Duration(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
	if HexBytes([]byte{0xEE, 0x01}).String() != "EE01" {
		t.Error("hex rendering broken")
	}
	if _, err := parseHex("EE0"); err == nil {
		t.Error("odd-length hex should fail")
	}
}

// TestStagedFromRoutesToRenamedPrimary: an outside-placement variant
// renames a catalog attacker to its rogue form; stage injections whose From
// names the attacker by its axis name must still route to that (renamed)
// primary, not spawn a spurious *inside* coattacker that changes what the
// placement axis measures.
func TestStagedFromRoutesToRenamedPrimary(t *testing.T) {
	plan, err := (Compiler{}).Compile(MustParse(`
campaign "route" version 1 {
  staged "st" {
    attackers Telematics
    placements inside, outside
    goal exfil
    stage "one" { inject 0x300 EE x 2 from Telematics }
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	scenarios := plan.Families[0].Scenarios
	if len(scenarios) != 2 {
		t.Fatalf("expected 2 variants, got %d", len(scenarios))
	}
	for _, sc := range scenarios {
		if len(sc.Coattackers) != 0 {
			t.Errorf("%s: primary-addressed From spawned coattackers %v", sc.Name, sc.Coattackers)
		}
		for _, inj := range sc.Stages[0].Injections {
			if inj.From != "" {
				t.Errorf("%s: injection From %q did not resolve to the primary", sc.Name, inj.From)
			}
		}
	}
	if scenarios[1].Attacker != "Rogue-Telematics" {
		t.Errorf("outside variant attacker = %q", scenarios[1].Attacker)
	}
}

// TestMutateProductCapOverflow: the family-size cap must hold even when the
// naive axis product would overflow int — duplicate-heavy axes may not slip
// a gigantic (or wrapped-negative) cross-product past validation.
func TestMutateProductCapOverflow(t *testing.T) {
	g := GeneratorSpec{Kind: KindMutate, Name: "big"}
	axis := make([]string, 1<<13)
	for i := range axis {
		axis[i] = "Infotainment"
	}
	g.Attackers = axis
	g.Modes = append([]string(nil), axis...)
	g.Placements = []string{"inside", "inside", "inside", "inside"}
	reps := make([]int, 1<<13)
	for i := range reps {
		reps[i] = 1
	}
	g.Repeats = reps
	gaps := make([]Duration, 1<<13)
	for i := range gaps {
		gaps[i] = Duration(time.Millisecond)
	}
	g.Gaps = gaps
	pays := make([]HexBytes, 1<<13)
	for i := range pays {
		pays[i] = HexBytes{0x01}
	}
	g.Payloads = pays
	// 16 bases x 8192^5 x 4 ≈ 2^69: wraps negative/small in int arithmetic.
	if _, err := expandMutate(&g, attack.Scenarios(), 1); err == nil {
		t.Fatal("overflowing cross-product accepted")
	}
}

// MustParse is Parse for static specs; it panics on error.
func MustParse(src string) *Spec {
	sp, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return sp
}
