// Package behaviour implements the fine-grained policy extension the paper
// sketches in §V-A ("more complex policies such as behavioural or
// situational based policies may be derived"): rules that decide not only
// on a frame's identifier and direction but on *vehicle situation* (e.g.
// "no door unlock while in motion") and on *traffic behaviour* (e.g. "at
// most N ECU commands per second").
//
// The extension composes with the identifier engine rather than replacing
// it: an Engine wraps any canbus.InlineFilter (normally the hpe.Engine) and
// applies its rules only to frames the base engine already granted. This
// closes the credential-abuse gap of pure ID filtering: a *legitimate*
// writer whose credentials are abused (stolen remote-unlock access, a
// flooding compromised sensor) is stopped by situation and rate rules even
// though every one of its frames carries an approved identifier.
package behaviour

import (
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/policy"
)

// Situation is a predicate over live system state, evaluated at decision
// time on the goroutine that drives the vehicle (see Engine), so it may
// read that vehicle's state without synchronisation.
type Situation interface {
	// Holds reports whether the situation currently applies.
	Holds() bool
	// Describe names the situation for audit output.
	Describe() string
}

// SituationFunc adapts a closure to Situation.
type SituationFunc struct {
	// Name is the audit label.
	Name string
	// Fn is the predicate.
	Fn func() bool
}

// Holds implements Situation.
func (s SituationFunc) Holds() bool { return s.Fn() }

// Describe implements Situation.
func (s SituationFunc) Describe() string { return s.Name }

var _ Situation = SituationFunc{}

// Clock supplies the current virtual time; rate rules measure their windows
// against it. sim.Scheduler.Now is the usual source.
type Clock func() time.Duration

// Rule is one behavioural/situational policy rule.
type Rule interface {
	// Name identifies the rule in stats and audit output.
	Name() string
	// Decide returns Block to veto a frame the identifier layer granted.
	Decide(dir canbus.Direction, f canbus.Frame, now time.Duration) canbus.Verdict
}

// SituationalDeny blocks a set of identifiers in one direction while a
// situation holds — e.g. deny reads of the door-unlock command while the
// vehicle is in motion.
type SituationalDeny struct {
	// Label names the rule.
	Label string
	// When is the situation under which the deny applies.
	When Situation
	// Direction restricted (Read or Write).
	Direction canbus.Direction
	// IDs covered.
	IDs policy.IDSet
}

// Name implements Rule.
func (r *SituationalDeny) Name() string { return r.Label }

// Decide implements Rule.
func (r *SituationalDeny) Decide(dir canbus.Direction, f canbus.Frame, _ time.Duration) canbus.Verdict {
	if dir != r.Direction || !r.IDs.Contains(f.ID) {
		return canbus.Grant
	}
	if r.When.Holds() {
		return canbus.Block
	}
	return canbus.Grant
}

// Validate checks the rule is fully specified.
func (r *SituationalDeny) Validate() error {
	if r.Label == "" {
		return fmt.Errorf("behaviour: situational rule has no label")
	}
	if r.When == nil {
		return fmt.Errorf("behaviour: rule %q has no situation", r.Label)
	}
	if r.Direction != canbus.Read && r.Direction != canbus.Write {
		return fmt.Errorf("behaviour: rule %q has invalid direction", r.Label)
	}
	if len(r.IDs) == 0 {
		return fmt.Errorf("behaviour: rule %q covers no identifiers", r.Label)
	}
	return nil
}

var _ Rule = (*SituationalDeny)(nil)

// RateLimit bounds how many frames of a set of identifiers may pass in one
// direction per sliding window — the behavioural defence against a
// legitimate-but-flooding node. The window is sliding and exact (it stores
// the grant timestamps inside the current window; MaxPerWindow bounds the
// memory).
type RateLimit struct {
	// Label names the rule.
	Label string
	// Direction restricted.
	Direction canbus.Direction
	// IDs covered.
	IDs policy.IDSet
	// MaxPerWindow is the number of grants allowed per Window.
	MaxPerWindow int
	// Window is the sliding window length.
	Window time.Duration

	grants []time.Duration
}

// Name implements Rule.
func (r *RateLimit) Name() string { return r.Label }

// Validate checks the rule is fully specified.
func (r *RateLimit) Validate() error {
	if r.Label == "" {
		return fmt.Errorf("behaviour: rate rule has no label")
	}
	if r.Direction != canbus.Read && r.Direction != canbus.Write {
		return fmt.Errorf("behaviour: rule %q has invalid direction", r.Label)
	}
	if len(r.IDs) == 0 {
		return fmt.Errorf("behaviour: rule %q covers no identifiers", r.Label)
	}
	if r.MaxPerWindow <= 0 {
		return fmt.Errorf("behaviour: rule %q has non-positive budget", r.Label)
	}
	if r.Window <= 0 {
		return fmt.Errorf("behaviour: rule %q has non-positive window", r.Label)
	}
	return nil
}

// Decide implements Rule.
func (r *RateLimit) Decide(dir canbus.Direction, f canbus.Frame, now time.Duration) canbus.Verdict {
	if dir != r.Direction || !r.IDs.Contains(f.ID) {
		return canbus.Grant
	}
	// Evict grants that slid out of the window.
	cutoff := now - r.Window
	keep := r.grants[:0]
	for _, t := range r.grants {
		if t > cutoff {
			keep = append(keep, t)
		}
	}
	r.grants = keep
	if len(r.grants) >= r.MaxPerWindow {
		return canbus.Block
	}
	r.grants = append(r.grants, now)
	return canbus.Grant
}

var _ Rule = (*RateLimit)(nil)

// Stats counts engine activity per layer.
type Stats struct {
	// Decisions counts frames examined.
	Decisions uint64
	// BaseBlocked counts frames already blocked by the identifier layer.
	BaseBlocked uint64
	// RuleBlocked counts frames vetoed by behavioural rules, per rule name.
	RuleBlocked map[string]uint64
	// Granted counts frames that passed both layers.
	Granted uint64
}

// Engine layers behavioural rules over an identifier-level inline filter.
// It implements canbus.InlineFilter and is installed in the same Fig. 4
// position; conceptually it is additional checking logic inside the HPE.
//
// Like the hpe.Engine it wraps, an Engine is single-owner: every call, and
// every rule it evaluates, runs on the goroutine that drives the vehicle's
// scheduler, and another goroutine may read it only across a synchronising
// handoff.
type Engine struct {
	base  canbus.InlineFilter
	clock Clock

	rules []Rule
	// ruleBlocked counts vetoes per rule, index-aligned with rules. Stats
	// materialises it into Stats.RuleBlocked on demand: a flooded sweep cell
	// vetoes thousands of frames, and a per-veto string-keyed map assign was
	// hot enough to show in whole-campaign CPU profiles.
	ruleBlocked []uint64
	stats       Stats
}

var _ canbus.InlineFilter = (*Engine)(nil)

// New creates an engine over base (the identifier layer; PermissiveFilter
// for behaviour-only enforcement) using clock for rate windows.
func New(base canbus.InlineFilter, clock Clock) *Engine {
	if base == nil {
		base = canbus.PermissiveFilter{}
	}
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Engine{base: base, clock: clock}
}

// validator is implemented by rules that can check themselves.
type validator interface{ Validate() error }

// AddRule appends a rule, validating it when possible.
func (e *Engine) AddRule(r Rule) error {
	if v, ok := r.(validator); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	for _, existing := range e.rules {
		if existing.Name() == r.Name() {
			return fmt.Errorf("behaviour: duplicate rule %q", r.Name())
		}
	}
	e.rules = append(e.rules, r)
	e.ruleBlocked = append(e.ruleBlocked, 0)
	return nil
}

// Reset restores the engine to its post-construction state without touching
// the installed rule list: counters zeroed and every stateful rule's window
// restored to empty, through the same hook RestoreFrom rewinds it with. A
// reset engine decides exactly like a freshly built one carrying the same
// rules — the pooled-arena equivalence the fleet engine relies on.
func (e *Engine) Reset() {
	e.stats = Stats{}
	clear(e.ruleBlocked)
	for _, r := range e.rules {
		if ws, ok := r.(windowSnapshottable); ok {
			ws.restoreWindow(nil)
		}
	}
}

// windowSnapshottable is implemented by rules whose per-run state is a
// window of grant timestamps (RateLimit); Engine.Snapshot captures it, and
// Engine.RestoreFrom and Engine.Reset rewind it.
type windowSnapshottable interface {
	snapshotWindow(dst []time.Duration) []time.Duration
	restoreWindow(src []time.Duration)
}

// snapshotWindow implements windowSnapshottable: it copies the current grant
// window into dst's storage (reused across captures).
func (r *RateLimit) snapshotWindow(dst []time.Duration) []time.Duration {
	return append(dst[:0], r.grants...)
}

// restoreWindow implements windowSnapshottable.
func (r *RateLimit) restoreWindow(src []time.Duration) {
	r.grants = append(r.grants[:0], src...)
}

// Snapshot captures an engine's mutable state — counters, per-rule veto
// counts and every stateful rule's window — for the attack arena's prefix
// checkpointing. The rule list itself is not captured: rules are never added
// or removed inside a checkpoint window.
type Snapshot struct {
	stats       Stats
	ruleBlocked []uint64
	windows     [][]time.Duration // index-aligned with rules; nil for stateless rules
}

// Snapshot captures the engine's state into dst, reusing dst's buffers.
func (e *Engine) Snapshot(dst *Snapshot) {
	dst.stats = e.stats
	dst.ruleBlocked = append(dst.ruleBlocked[:0], e.ruleBlocked...)
	if cap(dst.windows) < len(e.rules) {
		dst.windows = append(dst.windows, make([][]time.Duration, len(e.rules)-len(dst.windows))...)
	}
	dst.windows = dst.windows[:len(e.rules)]
	for i, r := range e.rules {
		if ws, ok := r.(windowSnapshottable); ok {
			dst.windows[i] = ws.snapshotWindow(dst.windows[i])
		}
	}
}

// RestoreFrom rewinds the engine to a state captured by Snapshot. A restored
// engine decides and counts byte-identically to one that replayed the
// captured prefix after a Reset.
func (e *Engine) RestoreFrom(src *Snapshot) {
	e.stats = src.stats
	copy(e.ruleBlocked, src.ruleBlocked)
	for i, r := range e.rules {
		if ws, ok := r.(windowSnapshottable); ok {
			ws.restoreWindow(src.windows[i])
		}
	}
}

// Stats returns a snapshot of the counters. RuleBlocked carries an entry for
// every rule that vetoed at least one frame.
func (e *Engine) Stats() Stats {
	cp := e.stats
	cp.RuleBlocked = make(map[string]uint64, len(e.rules))
	for i, r := range e.rules {
		if e.ruleBlocked[i] > 0 {
			cp.RuleBlocked[r.Name()] = e.ruleBlocked[i]
		}
	}
	return cp
}

// Decide implements canbus.InlineFilter: identifier layer first, then each
// behavioural rule in order; the first Block wins.
func (e *Engine) Decide(dir canbus.Direction, f canbus.Frame) canbus.Verdict {
	e.stats.Decisions++
	if e.base.Decide(dir, f) != canbus.Grant {
		e.stats.BaseBlocked++
		return canbus.Block
	}
	now := e.clock()
	for i, r := range e.rules {
		if r.Decide(dir, f, now) != canbus.Grant {
			e.ruleBlocked[i]++
			return canbus.Block
		}
	}
	e.stats.Granted++
	return canbus.Grant
}
