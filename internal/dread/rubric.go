package dread

import "fmt"

// The level types below encode the qualitative judgements an analyst makes
// during threat rating. Each level carries a fixed numeric value on the
// 0–10 DREAD scale; Rubric.Score assembles the five components. Encoding
// Table I through levels (rather than raw integers) keeps the reproduction
// honest: the table's numbers come out of this rubric applied to scenario
// facts.

// DamageLevel grades the worst-case damage of a successful attack.
type DamageLevel uint8

// Damage levels, from cosmetic nuisance to threat-to-life.
const (
	// DamageNegligible: no meaningful damage.
	DamageNegligible DamageLevel = iota + 1
	// DamageCosmetic: display-level falsification, no functional harm.
	DamageCosmetic
	// DamageDegraded: a convenience function degrades.
	DamageDegraded
	// DamageServiceLoss: a non-safety service is lost (e.g. tracking).
	DamageServiceLoss
	// DamageSubsystem: a vehicle subsystem is disabled or subverted.
	DamageSubsystem
	// DamageControl: attacker influence over vehicle control or theft.
	DamageControl
	// DamageSafety: immediate danger to occupants (safety-critical).
	DamageSafety
	// DamageLife: direct threat to life (e.g. locks sealed in a crash).
	DamageLife
)

var damageValue = map[DamageLevel]int{
	DamageNegligible:  0,
	DamageCosmetic:    3,
	DamageDegraded:    5,
	DamageServiceLoss: 6,
	DamageSubsystem:   6,
	DamageControl:     7,
	DamageSafety:      8,
	DamageLife:        9,
}

// Value returns the 0–10 score for the level.
func (l DamageLevel) Value() int { return damageValue[l] }

// ReproLevel grades how reliably the attack reproduces.
type ReproLevel uint8

// Reproducibility levels.
const (
	// ReproHard: needs rare preconditions; works sporadically.
	ReproHard ReproLevel = iota + 1
	// ReproSituational: needs a specific vehicle state (mode, motion).
	ReproSituational
	// ReproReliable: works whenever the attacker has bus access.
	ReproReliable
	// ReproAlways: works unconditionally once deployed.
	ReproAlways
)

var reproValue = map[ReproLevel]int{
	ReproHard:        3,
	ReproSituational: 4,
	ReproReliable:    5,
	ReproAlways:      6,
}

// Value returns the 0–10 score for the level.
func (l ReproLevel) Value() int { return reproValue[l] }

// ExploitLevel grades the effort and skill required to launch the attack.
type ExploitLevel uint8

// Exploitability levels.
const (
	// ExploitExpert: bespoke hardware plus deep proprietary knowledge.
	ExploitExpert ExploitLevel = iota + 1
	// ExploitSpecialist: specialist knowledge of the ECU and CAN layout.
	ExploitSpecialist
	// ExploitSkilled: published techniques, moderate skill.
	ExploitSkilled
	// ExploitToolkit: achievable with available tools/exploit kits.
	ExploitToolkit
	// ExploitEasy: trivially scriptable once the entry point is reached.
	ExploitEasy
)

var exploitValue = map[ExploitLevel]int{
	ExploitExpert:     3,
	ExploitSpecialist: 4,
	ExploitSkilled:    5,
	ExploitToolkit:    6,
	ExploitEasy:       7,
}

// Value returns the 0–10 score for the level.
func (l ExploitLevel) Value() int { return exploitValue[l] }

// AffectedLevel grades the population impacted by a successful attack.
type AffectedLevel uint8

// Affected-users levels.
const (
	// AffectedFew: a single user inconvenienced.
	AffectedFew AffectedLevel = iota + 1
	// AffectedOwner: the vehicle owner.
	AffectedOwner
	// AffectedOccupants: everyone in the vehicle.
	AffectedOccupants
	// AffectedBystanders: occupants plus other road users.
	AffectedBystanders
	// AffectedFleet: every vehicle sharing the platform.
	AffectedFleet
)

var affectedValue = map[AffectedLevel]int{
	AffectedFew:        4,
	AffectedOwner:      6,
	AffectedOccupants:  7,
	AffectedBystanders: 8,
	AffectedFleet:      9,
}

// Value returns the 0–10 score for the level.
func (l AffectedLevel) Value() int { return affectedValue[l] }

// DiscoverLevel grades how easily an attacker finds the weakness.
type DiscoverLevel uint8

// Discoverability levels.
const (
	// DiscoverObscure: requires insider documentation or reverse engineering.
	DiscoverObscure DiscoverLevel = iota + 1
	// DiscoverResearch: findable with targeted research effort.
	DiscoverResearch
	// DiscoverKnown: technique published for comparable systems.
	DiscoverKnown
	// DiscoverObvious: visible to anyone probing the interface.
	DiscoverObvious
)

var discoverValue = map[DiscoverLevel]int{
	DiscoverObscure:  4,
	DiscoverResearch: 5,
	DiscoverKnown:    6,
	DiscoverObvious:  7,
}

// Value returns the 0–10 score for the level.
func (l DiscoverLevel) Value() int { return discoverValue[l] }

// Assessment is the set of qualitative judgements for one threat.
type Assessment struct {
	Damage          DamageLevel
	Reproducibility ReproLevel
	Exploitability  ExploitLevel
	AffectedUsers   AffectedLevel
	Discoverability DiscoverLevel
}

// Validate checks that every level is a declared constant.
func (a Assessment) Validate() error {
	if _, ok := damageValue[a.Damage]; !ok {
		return fmt.Errorf("dread: invalid damage level %d", a.Damage)
	}
	if _, ok := reproValue[a.Reproducibility]; !ok {
		return fmt.Errorf("dread: invalid reproducibility level %d", a.Reproducibility)
	}
	if _, ok := exploitValue[a.Exploitability]; !ok {
		return fmt.Errorf("dread: invalid exploitability level %d", a.Exploitability)
	}
	if _, ok := affectedValue[a.AffectedUsers]; !ok {
		return fmt.Errorf("dread: invalid affected-users level %d", a.AffectedUsers)
	}
	if _, ok := discoverValue[a.Discoverability]; !ok {
		return fmt.Errorf("dread: invalid discoverability level %d", a.Discoverability)
	}
	return nil
}

// Rubric converts qualitative assessments into numeric scores.
type Rubric struct{}

// Score converts an assessment into a Score via the level values.
func (Rubric) Score(a Assessment) (Score, error) {
	if err := a.Validate(); err != nil {
		return Score{}, err
	}
	return New(
		a.Damage.Value(),
		a.Reproducibility.Value(),
		a.Exploitability.Value(),
		a.AffectedUsers.Value(),
		a.Discoverability.Value(),
	)
}
