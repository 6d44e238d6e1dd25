package ir

import (
	"repro/internal/policy"
)

// tableBackend re-homes the existing interpreted enforcement form — the
// per-node approved-list tables of Fig. 4 built by policy.Compile — behind
// the Backend interface. It compiles through Policy.ToSet so the artifact is
// produced by the very same policy.Compile code path the pre-backend engine
// ran: zero behaviour change by construction, which is why it is the
// default.
type tableBackend struct{}

func (tableBackend) Compile(p *Policy) (Enforcer, error) {
	c, err := policy.Compile(p.ToSet(), policy.CompileOptions{
		Subjects: p.Subjects,
		Modes:    p.Modes,
		Lookup:   p.Lookup,
	})
	if err != nil {
		return nil, err
	}
	return WrapCompiled(c), nil
}

// TableEnforcer is the table backend's Enforcer: its Node hands out the
// compiled policy's own NodeTables.
type TableEnforcer struct {
	compiled *policy.Compiled
}

// WrapCompiled adapts an already-compiled table artifact (policy.Compile
// output) into an Enforcer without re-lowering, so a caller that needs the
// table form anyway — the attack harness renders report views from it, the
// policy store installs it — compiles the policy once.
func WrapCompiled(c *policy.Compiled) *TableEnforcer {
	return &TableEnforcer{compiled: c}
}

// Backend implements Enforcer.
func (t *TableEnforcer) Backend() string { return "table" }

// Policy implements Enforcer.
func (t *TableEnforcer) Policy() (string, uint64) { return t.compiled.Name, t.compiled.Version }

// Decide implements Enforcer.
func (t *TableEnforcer) Decide(subject string, object uint32, act policy.Action, ctx Context) Decision {
	return decide(t.Node(subject), object, act, ctx)
}

// Node implements Enforcer: the compiled table itself (a fresh deny-all
// table for unknown subjects).
func (t *TableEnforcer) Node(subject string) *policy.NodeTable {
	return t.compiled.Node(subject)
}
