// Package policy defines the security-policy model at the heart of the
// paper's contribution: rules derived from threat modelling that grant or
// deny read/write access to bus messages per subject (node) and operating
// mode, together with a text DSL, a compiler producing per-node filter
// tables for the hardware policy engine, and signed, versioned policy
// bundles supporting the post-deployment update mechanism of §V-A.2.
package policy

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Action is the access kind a rule covers. The paper's Table I derives
// read (R), write (W) or read-write (RW) policies per threat.
type Action uint8

// Actions.
const (
	// ActRead covers inbound message delivery to the node.
	ActRead Action = 1 << iota
	// ActWrite covers outbound message transmission from the node.
	ActWrite
	// ActReadWrite covers both directions.
	ActReadWrite = ActRead | ActWrite
)

// String renders the action in Table I notation (R, W, RW).
func (a Action) String() string {
	switch a {
	case ActRead:
		return "R"
	case ActWrite:
		return "W"
	case ActReadWrite:
		return "RW"
	default:
		return "invalid"
	}
}

// Has reports whether a includes all of b's access kinds.
func (a Action) Has(b Action) bool { return a&b == b }

// Effect is the outcome of a matching rule.
type Effect uint8

// Effects.
const (
	// Allow grants the access.
	Allow Effect = iota + 1
	// Deny blocks the access. Deny always overrides Allow.
	Deny
)

// String returns the effect keyword.
func (e Effect) String() string {
	switch e {
	case Allow:
		return "allow"
	case Deny:
		return "deny"
	default:
		return "invalid"
	}
}

// Mode names an operating mode of the device (the paper's car modes:
// Normal, Remote Diagnostic, Fail-safe). Modes are free-form identifiers so
// other domains can define their own.
type Mode string

// ModeSet is a set of operating modes. The empty set means "all modes".
type ModeSet map[Mode]struct{}

// NewModeSet builds a set from mode names.
func NewModeSet(modes ...Mode) ModeSet {
	s := make(ModeSet, len(modes))
	for _, m := range modes {
		s[m] = struct{}{}
	}
	return s
}

// Contains reports whether the set applies in mode m: an empty set applies
// in every mode.
func (s ModeSet) Contains(m Mode) bool {
	if len(s) == 0 {
		return true
	}
	_, ok := s[m]
	return ok
}

// Add inserts a mode, allocating the set if needed, and returns it.
func (s ModeSet) Add(m Mode) ModeSet {
	if s == nil {
		s = ModeSet{}
	}
	s[m] = struct{}{}
	return s
}

// Clone returns a copy of the set.
func (s ModeSet) Clone() ModeSet {
	if s == nil {
		return nil
	}
	c := make(ModeSet, len(s))
	for m := range s {
		c[m] = struct{}{}
	}
	return c
}

// Names returns the sorted mode names; nil for the universal set.
func (s ModeSet) Names() []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, 0, len(s))
	for m := range s {
		out = append(out, string(m))
	}
	sort.Strings(out)
	return out
}

// String renders the set ("*" for all modes).
func (s ModeSet) String() string {
	if len(s) == 0 {
		return "*"
	}
	return strings.Join(s.Names(), ",")
}

// IDRange is an inclusive range of CAN message identifiers.
type IDRange struct {
	Lo, Hi uint32
}

// Contains reports whether id falls in the range.
func (r IDRange) Contains(id uint32) bool { return id >= r.Lo && id <= r.Hi }

// String renders "0xLO..0xHI" or "0xID" for singletons.
func (r IDRange) String() string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("0x%X", r.Lo)
	}
	return fmt.Sprintf("0x%X..0x%X", r.Lo, r.Hi)
}

// IDSet is a union of identifier ranges.
type IDSet []IDRange

// SingleID builds a one-identifier set.
func SingleID(id uint32) IDSet { return IDSet{{Lo: id, Hi: id}} }

// Span builds a one-range set.
func Span(lo, hi uint32) IDSet { return IDSet{{Lo: lo, Hi: hi}} }

// Contains reports whether id is in any range.
func (s IDSet) Contains(id uint32) bool {
	for _, r := range s {
		if r.Contains(id) {
			return true
		}
	}
	return false
}

// Normalize sorts the ranges, rejects inverted ranges and merges overlaps.
func (s IDSet) Normalize() (IDSet, error) {
	for _, r := range s {
		if r.Lo > r.Hi {
			return nil, fmt.Errorf("policy: inverted range %s", r)
		}
	}
	if len(s) <= 1 {
		return append(IDSet(nil), s...), nil
	}
	c := append(IDSet(nil), s...)
	sort.Slice(c, func(i, j int) bool {
		if c[i].Lo != c[j].Lo {
			return c[i].Lo < c[j].Lo
		}
		return c[i].Hi < c[j].Hi
	})
	out := IDSet{c[0]}
	for _, r := range c[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 && last.Hi+1 != 0 { // adjacent or overlapping
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// Enumerate lists every identifier in the set, capped at limit (0 = no cap).
// It returns an error when the set is larger than the cap, protecting
// callers that expand sets into hardware tables.
func (s IDSet) Enumerate(limit int) ([]uint32, error) {
	norm, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	var out []uint32
	for _, r := range norm {
		for id := r.Lo; ; id++ {
			out = append(out, id)
			if limit > 0 && len(out) > limit {
				return nil, fmt.Errorf("policy: id set exceeds %d entries", limit)
			}
			if id == r.Hi {
				break
			}
		}
	}
	return out, nil
}

// String renders the ranges separated by commas.
func (s IDSet) String() string {
	if len(s) == 0 {
		return "(none)"
	}
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// SubjectAll is the wildcard subject matching every node.
const SubjectAll = "*"

// Rule grants or denies one kind of access to a set of message identifiers
// for one subject in a set of modes.
type Rule struct {
	// Name optionally labels the rule (e.g. the threat it mitigates).
	Name string
	// Subject is the node the rule applies to, or SubjectAll.
	Subject string
	// Effect is Allow or Deny; Deny overrides Allow.
	Effect Effect
	// Action is the access direction(s) covered.
	Action Action
	// IDs is the set of message identifiers covered.
	IDs IDSet
	// Modes restricts the rule to operating modes; empty means all modes.
	Modes ModeSet
}

// Validation errors.
var (
	ErrNoSubject = errors.New("policy: rule has no subject")
	ErrNoIDs     = errors.New("policy: rule covers no identifiers")
	ErrBadEffect = errors.New("policy: invalid effect")
	ErrBadAction = errors.New("policy: invalid action")
	ErrBadMode   = errors.New("policy: invalid mode name")
)

// Validate checks structural validity, including that every mode name is
// an identifier the DSL reads back, and normalises the ID set.
func (r *Rule) Validate() error {
	if strings.TrimSpace(r.Subject) == "" {
		return fmt.Errorf("%w (rule %q)", ErrNoSubject, r.Name)
	}
	if r.Effect != Allow && r.Effect != Deny {
		return fmt.Errorf("%w: %d (rule %q)", ErrBadEffect, r.Effect, r.Name)
	}
	if r.Action != ActRead && r.Action != ActWrite && r.Action != ActReadWrite {
		return fmt.Errorf("%w: %d (rule %q)", ErrBadAction, r.Action, r.Name)
	}
	if len(r.IDs) == 0 {
		return fmt.Errorf("%w (rule %q)", ErrNoIDs, r.Name)
	}
	// A mode name must be one DSL identifier, so that Set.String reads
	// back through Parse; "*" would also read as the all-modes wildcard.
	// The least bad name is reported, so the error does not depend on map
	// order.
	var bad []Mode
	for m := range r.Modes {
		if !isBareIdent(string(m)) {
			bad = append(bad, m)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%w %q: not an identifier (rule %q)", ErrBadMode, slices.Min(bad), r.Name)
	}
	norm, err := r.IDs.Normalize()
	if err != nil {
		return fmt.Errorf("%v (rule %q)", err, r.Name)
	}
	r.IDs = norm
	return nil
}

// AppliesTo reports whether the rule matches the subject/mode/direction.
func (r Rule) AppliesTo(subject string, mode Mode, act Action) bool {
	if r.Subject != SubjectAll && r.Subject != subject {
		return false
	}
	if !r.Modes.Contains(mode) {
		return false
	}
	return r.Action.Has(act)
}

// String renders the rule in DSL syntax.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Effect.String())
	b.WriteByte(' ')
	switch r.Action {
	case ActRead:
		b.WriteString("read ")
	case ActWrite:
		b.WriteString("write ")
	case ActReadWrite:
		b.WriteString("readwrite ")
	}
	b.WriteString(r.IDs.String())
	b.WriteString(" at ")
	b.WriteString(quoteSubject(r.Subject))
	if len(r.Modes) > 0 {
		b.WriteString(" in ")
		b.WriteString(r.Modes.String())
	}
	if r.Name != "" {
		fmt.Fprintf(&b, " as %q", r.Name)
	}
	return b.String()
}

// quoteSubject renders a subject so the DSL parser reads it back verbatim:
// the wildcard and plain identifiers stay bare, everything else is quoted.
func quoteSubject(s string) string {
	if s == SubjectAll {
		return s
	}
	if isBareIdent(s) {
		return s
	}
	return fmt.Sprintf("%q", s)
}

// isBareIdent reports whether the lexer would read s back as one identifier
// token with the same text.
func isBareIdent(s string) bool {
	if s == "" {
		return false
	}
	first := rune(s[0])
	if !(first == '_' || ('a' <= first && first <= 'z') || ('A' <= first && first <= 'Z')) {
		return false
	}
	if strings.Contains(s, "..") {
		return false // the lexer splits at the range operator
	}
	for _, r := range s {
		if !(r == '_' || r == '-' || r == '/' || r == '.' ||
			('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')) {
			return false
		}
	}
	return true
}

// Set is a named, versioned collection of rules with closed-world
// (default-deny) semantics: access not allowed by some rule is denied.
type Set struct {
	// Name identifies the policy set (e.g. "table-i").
	Name string
	// Version increases monotonically with each update.
	Version uint64
	// Rules in declaration order. Order never affects semantics (deny
	// overrides allow regardless of position); it is kept for provenance.
	Rules []Rule
}

// Validate validates every rule.
func (s *Set) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return errors.New("policy: set has no name")
	}
	for i := range s.Rules {
		if err := s.Rules[i].Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// Decide evaluates the set for one access: Deny rules override Allow rules;
// with no matching rule the default is Deny (least privilege, §V-B).
func (s *Set) Decide(subject string, mode Mode, act Action, id uint32) Effect {
	allowed := false
	for _, r := range s.Rules {
		if !r.AppliesTo(subject, mode, act) || !r.IDs.Contains(id) {
			continue
		}
		if r.Effect == Deny {
			return Deny
		}
		allowed = true
	}
	if allowed {
		return Allow
	}
	return Deny
}

// Subjects returns the sorted set of distinct non-wildcard subjects.
func (s *Set) Subjects() []string {
	seen := map[string]struct{}{}
	for _, r := range s.Rules {
		if r.Subject != SubjectAll {
			seen[r.Subject] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Modes returns the sorted set of distinct modes mentioned by rules.
func (s *Set) Modes() []Mode {
	seen := map[Mode]struct{}{}
	for _, r := range s.Rules {
		for m := range r.Modes {
			seen[m] = struct{}{}
		}
	}
	out := make([]Mode, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the whole set in DSL syntax, parseable by Parse.
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %q version %d {\n", s.Name, s.Version)
	b.WriteString("  default deny\n")
	for _, r := range s.Rules {
		b.WriteString("  ")
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}
