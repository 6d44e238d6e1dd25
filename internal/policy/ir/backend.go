package ir

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/policy"
)

// Context carries the evaluation-time state a decision depends on beyond the
// (subject, object, action) triple. Today that is the operating mode; it is
// a struct so backends keep compiling when context grows (e.g. the
// behavioural regime's rate state).
type Context struct {
	// Mode is the device's current operating mode.
	Mode policy.Mode
}

// Decision is the outcome of one enforcement query. It is deliberately just
// the effect — no rule provenance, no strings — so backends that reach the
// same verdict are byte-identical and the differential harness can compare
// them directly.
type Decision struct {
	// Effect is Allow or Deny.
	Effect policy.Effect
}

// Enforcer is a fully compiled policy ready to decide accesses.
type Enforcer interface {
	// Backend names the backend that compiled this enforcer.
	Backend() string
	// Policy identifies the compiled policy (name, version).
	Policy() (name string, version uint64)
	// Decide evaluates one access under the closed-world contract.
	Decide(subject string, object uint32, act policy.Action, ctx Context) Decision
	// Node returns the subject's approved reading and writing lists per
	// operating mode: the Fig. 4 table the HPE installs, whichever form
	// the backend compiled the lists into. Unknown subjects get a deny-all
	// table, never nil. Contains on every list must be allocation-free:
	// the HPE calls it once per frame delivery across the whole fleet.
	Node(subject string) *policy.NodeTable
}

// decide is every backend's Decide: the subject's approved list for the
// mode and direction, queried for the object. Actions other than ActRead
// and ActWrite have no list and deny.
func decide(n *policy.NodeTable, object uint32, act policy.Action, ctx Context) Decision {
	mt := n.Table(ctx.Mode)
	allowed := false
	switch act {
	case policy.ActRead:
		allowed = mt.Reads.Contains(object)
	case policy.ActWrite:
		allowed = mt.Writes.Contains(object)
	}
	if allowed {
		return Decision{Effect: policy.Allow}
	}
	return Decision{Effect: policy.Deny}
}

// irEnforcer is the Enforcer of the backends that compile straight from the
// IR (expr, closure): one NodeTable per interned subject.
type irEnforcer struct {
	backend string
	p       *Policy
	nodes   []policy.NodeTable
}

// compileNodes builds an irEnforcer whose approved list for each interned
// subject, mode and direction is the one list returns.
func compileNodes(backend string, p *Policy, list func(si, mi int, act policy.Action) policy.IDLookup) *irEnforcer {
	e := &irEnforcer{backend: backend, p: p, nodes: make([]policy.NodeTable, len(p.Subjects))}
	for si, subj := range p.Subjects {
		nt := policy.NodeTable{Subject: subj, PerMode: make(map[policy.Mode]policy.ModeTable, len(p.Modes))}
		for mi, mode := range p.Modes {
			nt.PerMode[mode] = policy.ModeTable{Reads: list(si, mi, policy.ActRead), Writes: list(si, mi, policy.ActWrite)}
		}
		e.nodes[si] = nt
	}
	return e
}

func (e *irEnforcer) Backend() string { return e.backend }

func (e *irEnforcer) Policy() (string, uint64) { return e.p.Name, e.p.Version }

func (e *irEnforcer) Decide(subject string, object uint32, act policy.Action, ctx Context) Decision {
	return decide(e.Node(subject), object, act, ctx)
}

func (e *irEnforcer) Node(subject string) *policy.NodeTable {
	si, ok := e.p.SubjectIndex(subject)
	if !ok {
		return &policy.NodeTable{Subject: subject}
	}
	return &e.nodes[si]
}

// Backend compiles lowered policy IR into an Enforcer.
type Backend interface {
	// Name is the registry key ("table", "expr", "closure").
	Name() string
	// Compile builds an enforcer for the policy.
	Compile(p *Policy) (Enforcer, error)
}

// DefaultBackend is the backend used when none is named: the interpreted
// table form the engine has always run.
const DefaultBackend = "table"

var (
	registryMu sync.RWMutex
	registry   = map[string]Backend{}
)

// Register adds a backend under its name. Registering a duplicate name
// panics: backends register from init and a collision is a programming
// error.
func Register(b Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("ir: backend %q registered twice", b.Name()))
	}
	registry[b.Name()] = b
}

// Lookup resolves a backend name; the empty name means DefaultBackend. The
// error for an unknown name lists every registered backend so CLI surfaces
// can print it verbatim.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ir: unknown policy backend %q (registered: %s)", name, namesLocked())
	}
	return b, nil
}

// Names returns the sorted registered backend names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func namesLocked() string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	s := ""
	for i, n := range out {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// Build is the front door: lower the set against the device model and
// compile it with the backend named by opts.Backend (default "table").
func Build(set *policy.Set, opts policy.CompileOptions) (Enforcer, error) {
	b, err := Lookup(opts.Backend)
	if err != nil {
		return nil, err
	}
	p, err := Lower(set, opts)
	if err != nil {
		return nil, err
	}
	return b.Compile(p)
}
