// Package ir is the policy intermediate representation and the pluggable
// enforcement-backend layer between the policy DSL and the in-vehicle
// policy engines.
//
// The policy package compiles a rule set into exactly one enforcement form:
// the interpreted per-node approved-list tables of Fig. 4. Both related
// systems in this space are transpilers — oslopolicy2rego lowers oslo.policy
// documents into rego programs, gemara2ampel lowers governance policy into
// CEL verification policy — and the paper's own update story (§V-A.2) wants
// the same shape: one canonical policy source, multiple enforcement targets.
//
// This package supplies that shape:
//
//   - Policy is a small typed IR a policy.Set lowers into (Lower): subjects
//     and operating modes interned against the concrete device model, rules
//     normalised into index/bitmask/range form with unreachable rules
//     dropped.
//   - Backend compiles the IR into an Enforcer; Lookup resolves a backend
//     by name from a fixed map, and Build is the one-call front door used
//     by everything that threads a `-policy-backend` flag.
//   - Three backends ship: "table" re-homes the existing HPE-table/bitmap
//     interpreter behind the interface with zero behaviour change, "expr"
//     walks the normalised rule list directly (and is the transpile source
//     for the rego/CEL-style textual exports), and "closure" pre-compiles
//     every (subject, mode, direction) decision into direct-mapped jump
//     tables specialised for the vehicle model.
//   - Every backend compiles to the same runtime shape, the Fig. 4 table:
//     Enforcer.Node returns a subject's approved reading and writing lists
//     per mode as a *policy.NodeTable, and only the policy.IDLookup behind
//     each list differs (bitmap or hash, jump table, prefiltered rule
//     walk). The HPE installs that table whatever the backend, so it has
//     one decision path, and Enforcer.Decide is one lookup in it.
//
// # Decision semantics
//
// Every backend implements the same closed-world contract, and the
// differential harness (internal/policy/difftest) holds them to it
// decision-for-decision:
//
//   - act must be a single direction (ActRead or ActWrite); anything else
//     denies.
//   - Subjects outside the device's interned subject list deny outright —
//     the compiled-table semantics of an engine with no table for the node.
//   - Modes outside the device's interned mode list deny outright — the
//     deny-all fallback of NodeTable.Table.
//   - Otherwise deny overrides allow, and no matching rule denies
//     (least privilege, §V-B).
package ir

import (
	"fmt"
	"math/bits"

	"repro/internal/policy"
)

// Wildcard is the Rule.Subject index of a rule that applies to every
// interned subject (the DSL's "*" subject).
const Wildcard = -1

// Rule is one lowered policy rule: effect, action mask, interned subject,
// mode bitmask and normalised identifier ranges.
type Rule struct {
	// Name carries the source rule's label (provenance only).
	Name string
	// Effect is Allow or Deny; Deny overrides Allow.
	Effect policy.Effect
	// Action is the access direction mask the rule covers.
	Action policy.Action
	// Subject indexes Policy.Subjects, or Wildcard.
	Subject int
	// Modes is a bitmask over Policy.Modes; bit i set means the rule
	// applies in Policy.Modes[i]. A universal rule has every bit set.
	Modes uint64
	// IDs is the normalised identifier range set the rule covers.
	IDs policy.IDSet
}

// Policy is the lowered IR: a rule set normalised against one concrete
// device model (its subject and mode lists). It is immutable after Lower.
type Policy struct {
	// Name and Version carry over from the source set.
	Name    string
	Version uint64
	// Subjects is the device's interned subject list, in caller order.
	Subjects []string
	// Modes is the device's interned operating-mode list, in caller order.
	Modes []policy.Mode
	// Rules is the lowered rule list in declaration order. Rules that can
	// never match the device model (unknown subject, unreachable mode set)
	// are dropped during lowering; Dropped counts them.
	Rules []Rule
	// Dropped counts source rules lowered away as unreachable.
	Dropped int
	// Universe is the normalised union of every identifier any rule
	// mentions — the expansion domain of table-building backends.
	Universe policy.IDSet
	// Lookup carries the caller's table data structure hint for backends
	// that expand tables.
	Lookup policy.LookupKind

	subjectIdx map[string]int
	modeIdx    map[policy.Mode]int
}

// MaxModes bounds the interned mode list: mode sets lower into one uint64
// bitmask.
const MaxModes = 64

// Lower normalises a rule set against the device model named by opts
// (Subjects and Modes are required, exactly as for policy.Compile) and
// returns the typed IR every backend compiles from. The table-expansion cap
// (policy.TableLimit) is enforced here so a policy too large for bounded
// in-vehicle tables fails uniformly for every backend rather than only for
// the ones that expand.
func Lower(set *policy.Set, opts policy.CompileOptions) (*Policy, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Subjects) == 0 {
		return nil, fmt.Errorf("ir: lowering requires the device's subject list")
	}
	if len(opts.Modes) == 0 {
		return nil, fmt.Errorf("ir: lowering requires the device's mode list")
	}
	if len(opts.Modes) > MaxModes {
		return nil, fmt.Errorf("ir: %d modes exceed the %d-mode bitmask", len(opts.Modes), MaxModes)
	}
	p := &Policy{
		Name:       set.Name,
		Version:    set.Version,
		Subjects:   append([]string(nil), opts.Subjects...),
		Modes:      append([]policy.Mode(nil), opts.Modes...),
		subjectIdx: make(map[string]int, len(opts.Subjects)),
		modeIdx:    make(map[policy.Mode]int, len(opts.Modes)),
	}
	for i, s := range p.Subjects {
		if _, dup := p.subjectIdx[s]; dup {
			return nil, fmt.Errorf("ir: duplicate subject %q in device model", s)
		}
		p.subjectIdx[s] = i
	}
	for i, m := range p.Modes {
		if _, dup := p.modeIdx[m]; dup {
			return nil, fmt.Errorf("ir: duplicate mode %q in device model", m)
		}
		p.modeIdx[m] = i
	}
	allModes := uint64(1)<<len(p.Modes) - 1
	var universe policy.IDSet
	for i := range set.Rules {
		r := &set.Rules[i]
		lr := Rule{Name: r.Name, Effect: r.Effect, Action: r.Action, Subject: Wildcard}
		if r.Subject != policy.SubjectAll {
			si, ok := p.subjectIdx[r.Subject]
			if !ok {
				// The rule names a node the device does not have; no
				// decision on this device can ever match it.
				p.Dropped++
				continue
			}
			lr.Subject = si
		}
		if len(r.Modes) == 0 {
			lr.Modes = allModes
		} else {
			for m := range r.Modes {
				if mi, ok := p.modeIdx[m]; ok {
					lr.Modes |= 1 << mi
				}
			}
			if lr.Modes == 0 {
				// Every mode the rule names is foreign to this device.
				p.Dropped++
				continue
			}
		}
		norm, err := r.IDs.Normalize()
		if err != nil {
			return nil, fmt.Errorf("ir: rule %q: %w", r.Name, err)
		}
		lr.IDs = norm
		universe = append(universe, norm...)
		p.Rules = append(p.Rules, lr)
	}
	norm, err := universe.Normalize()
	if err != nil {
		return nil, err
	}
	p.Universe = norm
	p.Lookup = opts.Lookup
	if _, err := p.Universe.Enumerate(policy.TableLimit); err != nil {
		return nil, err
	}
	return p, nil
}

// SubjectIndex interns a subject name; ok is false for subjects the device
// model does not know (which every backend denies).
func (p *Policy) SubjectIndex(subject string) (int, bool) {
	i, ok := p.subjectIdx[subject]
	return i, ok
}

// ModeNames expands a rule's mode bitmask back into mode names, in interned
// order. A full mask returns nil, meaning "all modes".
func (p *Policy) ModeNames(mask uint64) []policy.Mode {
	if mask == uint64(1)<<len(p.Modes)-1 {
		return nil
	}
	out := make([]policy.Mode, 0, bits.OnesCount64(mask))
	for i, m := range p.Modes {
		if mask&(1<<i) != 0 {
			out = append(out, m)
		}
	}
	return out
}

// ToSet reconstructs a policy.Set from the IR: the faithful source of the
// lowered rules (dropped rules were unreachable on this device by
// construction). The table backend compiles through it so the artifact it
// produces is the output of the *same* policy.Compile code path the
// pre-backend engine used — zero behaviour change by construction.
func (p *Policy) ToSet() *policy.Set {
	s := &policy.Set{Name: p.Name, Version: p.Version, Rules: make([]policy.Rule, 0, len(p.Rules))}
	for _, r := range p.Rules {
		pr := policy.Rule{Name: r.Name, Effect: r.Effect, Action: r.Action, Subject: policy.SubjectAll, IDs: r.IDs}
		if r.Subject != Wildcard {
			pr.Subject = p.Subjects[r.Subject]
		}
		for _, m := range p.ModeNames(r.Modes) {
			pr.Modes = pr.Modes.Add(m)
		}
		s.Rules = append(s.Rules, pr)
	}
	return s
}

// evalIndexed is the rule walk over interned subject and mode indices, for
// one single-direction action: deny overrides, and any matching allow
// grants. It restates policy.Set.Decide on the lowered rules; the closure
// backend memoises it into jump tables at compile time, and difftest holds
// every backend to Set.Decide.
func (p *Policy) evalIndexed(si int, object uint32, act policy.Action, mi int) policy.Effect {
	allowed := false
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Subject != Wildcard && r.Subject != si {
			continue
		}
		if r.Modes&(1<<mi) == 0 || !r.Action.Has(act) || !r.IDs.Contains(object) {
			continue
		}
		if r.Effect == policy.Deny {
			return policy.Deny
		}
		allowed = true
	}
	if allowed {
		return policy.Allow
	}
	return policy.Deny
}
