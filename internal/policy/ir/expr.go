package ir

// exprBackend is the rego/CEL-style expression evaluator: it keeps the
// lowered rule list as a normalised AST and decides by walking it, exactly
// the shape oslopolicy2rego and gemara2ampel transpile into. It is the
// slowest backend but the only one whose runtime form is the transpile
// source (transpile.go renders the same rule list it walks), so what the
// textual exports say is literally what this backend executes.
//
// Compilation prefilters the rule list per (subject, mode, direction) into
// one approved list each, so the hot-path walk touches only rules that can
// match; the lists are built once at compile time and Contains never
// allocates.

import (
	"repro/internal/policy"
)

type exprBackend struct{}

func (exprBackend) Compile(p *Policy) (Enforcer, error) {
	return compileNodes("expr", p, func(si, mi int, act policy.Action) policy.IDLookup {
		return newExprList(p, si, mi, act)
	}), nil
}

// exprList is one (subject, mode, direction)'s approved list as a rule
// walk. The subject, mode and action predicates were discharged at compile
// time; only identifier membership remains.
type exprList struct {
	p     *Policy
	rules []*Rule
}

func newExprList(p *Policy, si, mi int, act policy.Action) *exprList {
	l := &exprList{p: p}
	for ri := range p.Rules {
		r := &p.Rules[ri]
		if (r.Subject == Wildcard || r.Subject == si) && r.Modes&(1<<mi) != 0 && r.Action.Has(act) {
			l.rules = append(l.rules, r)
		}
	}
	return l
}

// Contains implements policy.IDLookup: deny overrides allow, default deny.
func (l *exprList) Contains(id uint32) bool {
	allowed := false
	for _, r := range l.rules {
		if !r.IDs.Contains(id) {
			continue
		}
		if r.Effect == policy.Deny {
			return false
		}
		allowed = true
	}
	return allowed
}

// IDs implements policy.IDLookup: the rule universe filtered by Contains.
func (l *exprList) IDs() []uint32 {
	// Lower enumerated the universe under the same cap, so this cannot fail.
	ids, _ := l.p.Universe.Enumerate(policy.TableLimit)
	out := ids[:0]
	for _, id := range ids {
		if l.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// Len implements policy.IDLookup.
func (l *exprList) Len() int { return len(l.IDs()) }
