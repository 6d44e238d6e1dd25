// Package campaign is the procedural adversary-campaign generator: a
// declarative spec (small text/JSON format, campaign.Parse) that expands
// into whole *families* of attack scenarios instead of the seven fixed
// Table I threats the paper evaluates. The paper itself anticipates the
// need (§V-A: "more complex policies such as behavioural or situational
// based policies may be derived" — richer policies demand richer
// adversaries to evaluate them against).
//
// A spec declares generators of three kinds:
//
//   - mutate  — seed-derived mutations of the Table I baselines across
//     attacker node, placement, car mode, payload, repeat count and frame
//     pacing, enumerated as a cross-product with optional deterministic
//     sampling (pick);
//   - flood   — coordinated multi-attacker floods (teams × rates × frame
//     counts) that exercise the behaviour engine's rate rules;
//   - staged  — multi-stage campaigns (recon → injection → persistence)
//     whose stages are gated by predicates over observable vehicle state.
//
// A Compiler lowers the spec into attack.Scenario cells grouped into
// families, each with a SplitMix64-derived sub-seed; Sweep executes the
// families on the fleet engine's pooled arenas and folds the outcome into a
// CampaignReport that is byte-identical across worker counts and across
// pooled/fresh runs.
package campaign

import (
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/car"
)

// Generator kinds.
const (
	// KindMutate mutates Table I baselines along declared axes.
	KindMutate = "mutate"
	// KindFlood builds coordinated multi-attacker floods.
	KindFlood = "flood"
	// KindStaged builds predicate-gated multi-stage campaigns.
	KindStaged = "staged"
)

// Spec is one parsed campaign definition.
type Spec struct {
	// Name labels the campaign.
	Name string `json:"name"`
	// Version is the campaign revision.
	Version uint64 `json:"version"`
	// Seed salts every family's SplitMix64 sub-seed derivation.
	Seed uint64 `json:"seed,omitempty"`
	// Regimes is the campaign-level enforcement sweep (default none, hpe);
	// generators may override it.
	Regimes []string `json:"regimes,omitempty"`
	// Generators are the scenario families, in declaration order.
	Generators []GeneratorSpec `json:"generators"`
}

// GeneratorSpec declares one scenario family. Kind selects which fields
// apply; unused fields must stay zero.
type GeneratorSpec struct {
	// Kind is mutate, flood or staged.
	Kind string `json:"kind"`
	// Name labels the family (unique within the campaign).
	Name string `json:"name"`
	// NoProbe skips the per-cell functional probe (LegitimateOK reports
	// true): bulk families trade false-positive measurement for throughput.
	NoProbe bool `json:"no_probe,omitempty"`
	// Regimes overrides the campaign-level enforcement sweep.
	Regimes []string `json:"regimes,omitempty"`

	// Base (mutate) selects the Table I baseline by threat ID; empty means
	// every baseline.
	Base string `json:"base,omitempty"`
	// Attackers (mutate, staged) is the attacker-node axis; empty keeps the
	// baseline's attacker (mutate) and is invalid for staged.
	Attackers []string `json:"attackers,omitempty"`
	// Placements (mutate, staged) is the placement axis: inside, outside.
	Placements []string `json:"placements,omitempty"`
	// Modes (mutate, staged) is the car-mode axis.
	Modes []string `json:"modes,omitempty"`
	// Repeats (mutate) is the injection repeat-count axis.
	Repeats []int `json:"repeats,omitempty"`
	// Gaps (mutate) is the inter-frame pacing axis.
	Gaps []Duration `json:"gaps,omitempty"`
	// Payloads (mutate) is the forged-payload axis, replacing the
	// baseline's injected data.
	Payloads []HexBytes `json:"payloads,omitempty"`
	// Pick samples this many combos from the cross-product with the
	// family's sub-seed (0 = keep the full product).
	Pick int `json:"pick,omitempty"`

	// ID (flood) is the flooded CAN identifier.
	ID uint32 `json:"id,omitempty"`
	// Payload (flood) is the flooded frame data.
	Payload HexBytes `json:"payload,omitempty"`
	// Teams (flood) is the coordinated-attacker-team axis; catalog nodes
	// join as inside attackers, other names attach as outside rogues.
	Teams [][]string `json:"teams,omitempty"`
	// Rates (flood) is the per-attacker inter-frame gap axis.
	Rates []Duration `json:"rates,omitempty"`
	// Frames (flood) is the frames-per-attacker axis.
	Frames []int `json:"frames,omitempty"`
	// Threshold (flood) parameterises the exfil goal: attack succeeds when
	// that many exfiltration reports land (default 1).
	Threshold int `json:"threshold,omitempty"`

	// Goal names the success predicate (flood: default exfil; staged:
	// required).
	Goal string `json:"goal,omitempty"`
	// Stages (staged) are the campaign phases, in order.
	Stages []StageSpec `json:"stages,omitempty"`
}

// StageSpec is one phase of a staged generator.
type StageSpec struct {
	// Name labels the stage.
	Name string `json:"name"`
	// Proceed names the predicate gating the stage (empty = always).
	Proceed string `json:"proceed,omitempty"`
	// Injections are the stage's forged frames.
	Injections []InjectionSpec `json:"injections"`
}

// InjectionSpec is one forged frame train inside a stage.
type InjectionSpec struct {
	// ID is the CAN identifier.
	ID uint32 `json:"id"`
	// Data is the frame payload.
	Data HexBytes `json:"data,omitempty"`
	// Repeat sends the frame this many times (min 1).
	Repeat int `json:"repeat,omitempty"`
	// Gap paces the repeats (harness default if zero).
	Gap Duration `json:"gap,omitempty"`
	// From names the transmitting attacker (empty = the variant's primary);
	// other names are auto-placed as coattackers.
	From string `json:"from,omitempty"`
}

// Duration is a time.Duration with a compact textual form ("500us", "2ms")
// in both the DSL and JSON.
type Duration time.Duration

// String renders the canonical DSL form.
func (d Duration) String() string {
	v := time.Duration(d)
	switch {
	case v == 0:
		return "0s"
	case v%time.Second == 0:
		return fmt.Sprintf("%ds", v/time.Second)
	case v%time.Millisecond == 0:
		return fmt.Sprintf("%dms", v/time.Millisecond)
	case v%time.Microsecond == 0:
		return fmt.Sprintf("%dus", v/time.Microsecond)
	default:
		return fmt.Sprintf("%dns", v.Nanoseconds())
	}
}

// MarshalJSON renders the compact form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// UnmarshalJSON accepts "500us"-style strings or plain nanosecond numbers.
// The number fallback must consume the whole value: a typo'd unit
// ("150uss") is an error, not 150 ns.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := time.ParseDuration(s)
	if err != nil {
		ns, err2 := strconv.ParseInt(s, 10, 64)
		if err2 != nil {
			return fmt.Errorf("campaign: bad duration %q", s)
		}
		v = time.Duration(ns)
	}
	*d = Duration(v)
	return nil
}

// HexBytes is a frame payload rendered as plain hex in both formats.
type HexBytes []byte

// String renders uppercase hex.
func (h HexBytes) String() string { return strings.ToUpper(hex.EncodeToString(h)) }

// MarshalJSON renders the hex string.
func (h HexBytes) MarshalJSON() ([]byte, error) { return []byte(`"` + h.String() + `"`), nil }

// UnmarshalJSON accepts a hex string (optionally 0x-prefixed).
func (h *HexBytes) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := parseHex(s)
	if err != nil {
		return err
	}
	*h = v
	return nil
}

// parseHex decodes an even-length hex word, tolerating an 0x prefix and
// lower/upper case. The empty string decodes to an empty payload.
func parseHex(s string) (HexBytes, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	v, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("campaign: bad hex payload %q", s)
	}
	return HexBytes(v), nil
}

// Predicates over observable vehicle state, usable as stage gates (proceed)
// and scenario goals (goal). The table is the campaign DSL's vocabulary for
// "what did the attack achieve".
var predicates = map[string]func(car.State) bool{
	"always":             func(car.State) bool { return true },
	"propulsion-off":     func(s car.State) bool { return !s.Propulsion },
	"propulsion-on":      func(s car.State) bool { return s.Propulsion },
	"engine-off":         func(s car.State) bool { return !s.EngineRunning },
	"eps-off":            func(s car.State) bool { return !s.EPSActive },
	"modem-off":          func(s car.State) bool { return !s.ModemEnabled },
	"tracking-off":       func(s car.State) bool { return !s.TrackingActive },
	"doors-unlocked":     func(s car.State) bool { return !s.DoorsLocked },
	"doors-locked":       func(s car.State) bool { return s.DoorsLocked },
	"alarm-armed":        func(s car.State) bool { return s.AlarmArmed },
	"alarm-off":          func(s car.State) bool { return !s.AlarmArmed },
	"failsafe-triggered": func(s car.State) bool { return s.FailSafeTriggered },
	"firmware-modified":  func(s car.State) bool { return s.FirmwareModified },
	"display-mismatch":   func(s car.State) bool { return s.DisplayedSpeed != s.ActualSpeed },
	"exfil":              func(s car.State) bool { return s.ExfilReports > 0 },
}

// HasPredicate reports whether name is in the DSL's predicate vocabulary —
// the check risk synthesis applies to threat goals before lowering them into
// generated flood/staged families.
func HasPredicate(name string) bool {
	_, ok := predicates[name]
	return ok
}

// PredicateNames lists the DSL's predicate vocabulary, sorted.
func PredicateNames() []string {
	out := make([]string, 0, len(predicates))
	for k := range predicates {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Enforcement regime words accepted in regimes lists.
var regimeWords = map[string]bool{"none": true, "software": true, "hpe": true, "behaviour": true}

// Normalize canonicalises a programmatically built spec the same way Parse
// canonicalises parsed ones, so synthesized specs (internal/risk) satisfy the
// render round-trip invariant: Parse(sp.String()) deep-equals sp.
func (sp *Spec) Normalize() { sp.normalize() }

// normalize canonicalises a parsed spec so the DSL and JSON branches yield
// identical in-memory values: empty slices become nil, regime/kind words
// lower-case, and an explicit "*" base becomes the empty (= all) form.
func (sp *Spec) normalize() {
	if len(sp.Regimes) == 0 {
		sp.Regimes = nil
	}
	for i := range sp.Regimes {
		sp.Regimes[i] = strings.ToLower(sp.Regimes[i])
	}
	if len(sp.Generators) == 0 {
		sp.Generators = nil
	}
	for i := range sp.Generators {
		g := &sp.Generators[i]
		g.Kind = strings.ToLower(g.Kind)
		if g.Base == "*" {
			g.Base = ""
		}
		for j := range g.Regimes {
			g.Regimes[j] = strings.ToLower(g.Regimes[j])
		}
		nilIfEmptyStr(&g.Regimes)
		nilIfEmptyStr(&g.Attackers)
		nilIfEmptyStr(&g.Placements)
		nilIfEmptyStr(&g.Modes)
		if len(g.Repeats) == 0 {
			g.Repeats = nil
		}
		if len(g.Gaps) == 0 {
			g.Gaps = nil
		}
		if len(g.Payloads) == 0 {
			g.Payloads = nil
		}
		for j := range g.Payloads {
			if len(g.Payloads[j]) == 0 {
				g.Payloads[j] = nil
			}
		}
		if len(g.Payload) == 0 {
			g.Payload = nil
		}
		if len(g.Teams) == 0 {
			g.Teams = nil
		}
		if len(g.Rates) == 0 {
			g.Rates = nil
		}
		if len(g.Frames) == 0 {
			g.Frames = nil
		}
		if len(g.Stages) == 0 {
			g.Stages = nil
		}
		for j := range g.Stages {
			st := &g.Stages[j]
			if len(st.Injections) == 0 {
				st.Injections = nil
			}
			for k := range st.Injections {
				if len(st.Injections[k].Data) == 0 {
					st.Injections[k].Data = nil
				}
				// Repeat 1 and the implicit minimum are the same train;
				// canonicalise so the rendering round-trips.
				if st.Injections[k].Repeat == 1 {
					st.Injections[k].Repeat = 0
				}
			}
		}
	}
}

func nilIfEmptyStr(s *[]string) {
	if len(*s) == 0 {
		*s = nil
	}
}

// Validation bounds: they keep a single spec from declaring an absurd
// amount of per-cell work; the compile-time product cap bounds family size.
const (
	maxRepeat   = 100
	maxFrames   = 1000
	maxGap      = Duration(time.Second)
	maxTeamSize = 8
)

// isWord reports whether s is a bare DSL word: non-empty and built from the
// identifier rune set. Names that appear unquoted in the canonical
// rendering (attackers, modes, base, team members, from) must satisfy it so
// the rendering re-parses to the same spec.
func isWord(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' && r != '.' && r != '/' {
			return false
		}
	}
	return true
}

func validWords(key string, vals []string) error {
	for _, v := range vals {
		if !isWord(v) {
			return fmt.Errorf("%s entry %q is not a bare identifier", key, v)
		}
	}
	return nil
}

// validString rejects label values the canonical %q rendering cannot carry
// through the DSL lexer: invalid UTF-8 and non-printable runes (other than
// tab and newline, which have dedicated escapes).
func validString(key, s string) error {
	if !utf8.ValidString(s) {
		return fmt.Errorf("%s is not valid UTF-8", key)
	}
	for _, r := range s {
		if r == '\n' || r == '\t' {
			continue
		}
		if !unicode.IsPrint(r) {
			return fmt.Errorf("%s contains non-printable rune %U", key, r)
		}
	}
	return nil
}

// Validate checks the spec is well-formed: known kinds, known regimes
// listed once each, unique family names, bounded repeat/frame/gap values,
// known predicates, and the per-kind field requirements.
func (sp *Spec) Validate() error {
	seen := map[string]bool{}
	if err := validString("campaign name", sp.Name); err != nil {
		return err
	}
	if len(sp.Generators) == 0 {
		return fmt.Errorf("campaign %q: no generators", sp.Name)
	}
	if err := validRegimes(sp.Regimes); err != nil {
		return fmt.Errorf("campaign %q: %w", sp.Name, err)
	}
	for i := range sp.Generators {
		g := &sp.Generators[i]
		where := fmt.Sprintf("campaign %q generator %q", sp.Name, g.Name)
		if err := validString("family name", g.Name); err != nil {
			return fmt.Errorf("campaign %q: %w", sp.Name, err)
		}
		if seen[g.Name] {
			return fmt.Errorf("%s: duplicate family name", where)
		}
		seen[g.Name] = true
		if err := validRegimes(g.Regimes); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		var err error
		switch g.Kind {
		case KindMutate:
			err = g.validateMutate()
		case KindFlood:
			err = g.validateFlood()
		case KindStaged:
			err = g.validateStaged()
		default:
			err = fmt.Errorf("unknown generator kind %q", g.Kind)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	}
	return nil
}

func validRegimes(words []string) error {
	for i, w := range words {
		if !regimeWords[w] {
			return fmt.Errorf("unknown enforcement regime %q", w)
		}
		if slices.Contains(words[:i], w) {
			return fmt.Errorf("enforcement regime %q repeated", w)
		}
	}
	return nil
}

func validPlacements(words []string) error {
	for _, w := range words {
		if w != "inside" && w != "outside" {
			return fmt.Errorf("unknown placement %q", w)
		}
	}
	return nil
}

func validPredicate(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := predicates[name]; !ok {
		return fmt.Errorf("unknown predicate %q (known: %s)", name, strings.Join(PredicateNames(), ", "))
	}
	return nil
}

func (g *GeneratorSpec) validateMutate() error {
	if g.Base != "" && !isWord(g.Base) {
		return fmt.Errorf("base %q is not a bare identifier", g.Base)
	}
	if err := validWords("attackers", g.Attackers); err != nil {
		return err
	}
	if err := validWords("modes", g.Modes); err != nil {
		return err
	}
	if err := validPlacements(g.Placements); err != nil {
		return err
	}
	for _, r := range g.Repeats {
		if r < 1 || r > maxRepeat {
			return fmt.Errorf("repeat %d out of range 1..%d", r, maxRepeat)
		}
	}
	for _, gp := range g.Gaps {
		if gp <= 0 || gp > maxGap {
			return fmt.Errorf("gap %s out of range (0, %s]", gp, maxGap)
		}
	}
	for _, p := range g.Payloads {
		if len(p) == 0 {
			return fmt.Errorf("payloads entries must not be empty")
		}
		if len(p) > 8 {
			return fmt.Errorf("payload %s exceeds the 8-byte CAN limit", p)
		}
	}
	if g.Pick < 0 {
		return fmt.Errorf("negative pick %d", g.Pick)
	}
	// A field the kind never reads must stay zero: a silently ignored goal
	// or threshold would make the spec measure something it doesn't say.
	if len(g.Teams) > 0 || len(g.Rates) > 0 || len(g.Frames) > 0 || len(g.Stages) > 0 ||
		g.ID != 0 || len(g.Payload) > 0 || g.Threshold != 0 || g.Goal != "" {
		return fmt.Errorf("mutate generator declares flood/staged fields")
	}
	return nil
}

func (g *GeneratorSpec) validateFlood() error {
	if g.ID > 0x7FF {
		return fmt.Errorf("id 0x%X exceeds the standard 11-bit range", g.ID)
	}
	if len(g.Teams) == 0 {
		return fmt.Errorf("flood generator declares no teams")
	}
	for _, t := range g.Teams {
		if len(t) == 0 || len(t) > maxTeamSize {
			return fmt.Errorf("team size %d out of range 1..%d", len(t), maxTeamSize)
		}
		if err := validWords("team", t); err != nil {
			return err
		}
		// A duplicate member would try to attach the same rogue node twice
		// per cell and abort the whole sweep at run time.
		members := map[string]bool{}
		for _, m := range t {
			if members[m] {
				return fmt.Errorf("team lists member %q twice", m)
			}
			members[m] = true
		}
	}
	for _, f := range g.Frames {
		if f < 1 || f > maxFrames {
			return fmt.Errorf("frames %d out of range 1..%d", f, maxFrames)
		}
	}
	for _, r := range g.Rates {
		if r <= 0 || r > maxGap {
			return fmt.Errorf("rate %s out of range (0, %s]", r, maxGap)
		}
	}
	if len(g.Payload) > 8 {
		return fmt.Errorf("payload %s exceeds the 8-byte CAN limit", g.Payload)
	}
	if g.Threshold < 0 {
		return fmt.Errorf("negative threshold %d", g.Threshold)
	}
	if err := validPredicate(g.Goal); err != nil {
		return err
	}
	if len(g.Attackers) > 0 || len(g.Placements) > 0 || len(g.Stages) > 0 ||
		len(g.Modes) > 0 || len(g.Repeats) > 0 || len(g.Gaps) > 0 ||
		len(g.Payloads) > 0 || g.Pick != 0 || g.Base != "" {
		return fmt.Errorf("flood generator declares mutate/staged fields")
	}
	return nil
}

func (g *GeneratorSpec) validateStaged() error {
	if len(g.Attackers) == 0 {
		return fmt.Errorf("staged generator declares no attackers")
	}
	if err := validWords("attackers", g.Attackers); err != nil {
		return err
	}
	if err := validWords("modes", g.Modes); err != nil {
		return err
	}
	if err := validPlacements(g.Placements); err != nil {
		return err
	}
	if g.Goal == "" {
		return fmt.Errorf("staged generator declares no goal")
	}
	if err := validPredicate(g.Goal); err != nil {
		return err
	}
	if len(g.Stages) == 0 {
		return fmt.Errorf("staged generator declares no stages")
	}
	for _, st := range g.Stages {
		if err := validString("stage name", st.Name); err != nil {
			return err
		}
		if err := validPredicate(st.Proceed); err != nil {
			return fmt.Errorf("stage %q: %w", st.Name, err)
		}
		for _, inj := range st.Injections {
			if inj.ID > 0x7FF {
				return fmt.Errorf("stage %q: id 0x%X exceeds the standard 11-bit range", st.Name, inj.ID)
			}
			if inj.Repeat < 0 || inj.Repeat > maxFrames {
				return fmt.Errorf("stage %q: repeat %d out of range 0..%d", st.Name, inj.Repeat, maxFrames)
			}
			if inj.Gap < 0 || inj.Gap > maxGap {
				return fmt.Errorf("stage %q: gap %s out of range [0, %s]", st.Name, inj.Gap, maxGap)
			}
			if len(inj.Data) > 8 {
				return fmt.Errorf("stage %q: payload %s exceeds the 8-byte CAN limit", st.Name, inj.Data)
			}
			if inj.From != "" && !isWord(inj.From) {
				return fmt.Errorf("stage %q: from %q is not a bare identifier", st.Name, inj.From)
			}
		}
	}
	if len(g.Teams) > 0 || len(g.Rates) > 0 || len(g.Frames) > 0 ||
		len(g.Payloads) > 0 || len(g.Repeats) > 0 || len(g.Gaps) > 0 ||
		g.Pick != 0 || g.Base != "" || g.ID != 0 || len(g.Payload) > 0 {
		return fmt.Errorf("staged generator declares mutate/flood fields")
	}
	return nil
}

// String renders the canonical DSL form: parsing the rendering yields a
// spec identical to the receiver (the FuzzParse round-trip invariant).
func (sp *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q version %d {\n", sp.Name, sp.Version)
	if sp.Seed != 0 {
		fmt.Fprintf(&b, "  seed %d\n", sp.Seed)
	}
	if len(sp.Regimes) > 0 {
		fmt.Fprintf(&b, "  regimes %s\n", strings.Join(sp.Regimes, ", "))
	}
	for i := range sp.Generators {
		sp.Generators[i].render(&b)
	}
	b.WriteString("}\n")
	return b.String()
}

func (g *GeneratorSpec) render(b *strings.Builder) {
	fmt.Fprintf(b, "  %s %q {\n", g.Kind, g.Name)
	if len(g.Regimes) > 0 {
		fmt.Fprintf(b, "    regimes %s\n", strings.Join(g.Regimes, ", "))
	}
	if g.NoProbe {
		fmt.Fprintf(b, "    probe off\n")
	}
	if g.Base != "" {
		fmt.Fprintf(b, "    base %s\n", g.Base)
	}
	renderList(b, "attackers", g.Attackers)
	renderList(b, "placements", g.Placements)
	renderList(b, "modes", g.Modes)
	if len(g.Repeats) > 0 {
		fmt.Fprintf(b, "    repeats %s\n", joinInts(g.Repeats))
	}
	if len(g.Gaps) > 0 {
		fmt.Fprintf(b, "    gaps %s\n", joinStringers(g.Gaps))
	}
	if len(g.Payloads) > 0 {
		fmt.Fprintf(b, "    payloads %s\n", joinStringers(g.Payloads))
	}
	if g.Pick > 0 {
		fmt.Fprintf(b, "    pick %d\n", g.Pick)
	}
	if g.ID != 0 {
		fmt.Fprintf(b, "    id 0x%X\n", g.ID)
	}
	if len(g.Payload) > 0 {
		fmt.Fprintf(b, "    payload %s\n", g.Payload)
	}
	for _, t := range g.Teams {
		fmt.Fprintf(b, "    team %s\n", strings.Join(t, ", "))
	}
	if len(g.Rates) > 0 {
		fmt.Fprintf(b, "    rates %s\n", joinStringers(g.Rates))
	}
	if len(g.Frames) > 0 {
		fmt.Fprintf(b, "    frames %s\n", joinInts(g.Frames))
	}
	if g.Threshold > 0 {
		fmt.Fprintf(b, "    threshold %d\n", g.Threshold)
	}
	if g.Goal != "" {
		fmt.Fprintf(b, "    goal %s\n", g.Goal)
	}
	for i := range g.Stages {
		g.Stages[i].render(b)
	}
	b.WriteString("  }\n")
}

func (st *StageSpec) render(b *strings.Builder) {
	fmt.Fprintf(b, "    stage %q {\n", st.Name)
	if st.Proceed != "" {
		fmt.Fprintf(b, "      proceed %s\n", st.Proceed)
	}
	for _, inj := range st.Injections {
		fmt.Fprintf(b, "      inject 0x%X", inj.ID)
		if len(inj.Data) > 0 {
			fmt.Fprintf(b, " %s", inj.Data)
		}
		if inj.Repeat > 1 {
			fmt.Fprintf(b, " x %d", inj.Repeat)
		}
		if inj.Gap > 0 {
			fmt.Fprintf(b, " every %s", inj.Gap)
		}
		if inj.From != "" {
			fmt.Fprintf(b, " from %s", inj.From)
		}
		b.WriteByte('\n')
	}
	b.WriteString("    }\n")
}

func renderList(b *strings.Builder, key string, vals []string) {
	if len(vals) > 0 {
		fmt.Fprintf(b, "    %s %s\n", key, strings.Join(vals, ", "))
	}
}

func joinInts(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ", ")
}

func joinStringers[T fmt.Stringer](vals []T) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}
