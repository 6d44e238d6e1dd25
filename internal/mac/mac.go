// Package mac implements a minimal SELinux-style mandatory access control
// server: security contexts, type-enforcement allow rules grouped into
// loadable modules, an access-vector cache (AVC), enforcing/permissive
// modes and an audit log. Checks resolve against a dense rule index
// precomputed at module load, so the hot path never scans modules or
// allocates; a Reset restores a loaded server to its pristine state for
// reuse across simulated vehicles.
//
// The paper (§V-B.1) positions SELinux as the software half of policy
// enforcement — "checking application permission boundaries and identifying
// anomalous behaviour" — and argues a hardware engine is needed because
// software enforcement falls with the kernel. That failure mode is modelled
// explicitly by CompromiseKernel, which the attack harness uses to show the
// software layer being bypassed while the HPE keeps filtering.
package mac

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Context is an SELinux-style security context (user:role:type). Only the
// type field participates in type enforcement, as in SELinux targeted policy.
type Context struct {
	User string
	Role string
	Type string
}

// ParseContext reads "user:role:type" notation.
func ParseContext(s string) (Context, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Context{}, fmt.Errorf("mac: context %q must be user:role:type", s)
	}
	for i, p := range parts {
		if strings.TrimSpace(p) == "" {
			return Context{}, fmt.Errorf("mac: empty field %d in context %q", i, s)
		}
	}
	return Context{User: parts[0], Role: parts[1], Type: parts[2]}, nil
}

// String renders "user:role:type".
func (c Context) String() string { return c.User + ":" + c.Role + ":" + c.Type }

// Class is an object class (process, file, can_socket, ...).
type Class string

// Permission is a class-specific permission name (read, write, exec, ...).
type Permission string

// AllowRule grants permissions from a source type to a target type on one
// object class: allow srcType tgtType : class { perms }.
type AllowRule struct {
	SourceType string
	TargetType string
	Class      Class
	Perms      []Permission
}

// Validate checks all fields are populated.
func (r AllowRule) Validate() error {
	if r.SourceType == "" || r.TargetType == "" || r.Class == "" || len(r.Perms) == 0 {
		return fmt.Errorf("mac: incomplete allow rule %+v", r)
	}
	return nil
}

// String renders SELinux allow-rule syntax.
func (r AllowRule) String() string {
	perms := make([]string, len(r.Perms))
	for i, p := range r.Perms {
		perms[i] = string(p)
	}
	sort.Strings(perms)
	return fmt.Sprintf("allow %s %s : %s { %s }",
		r.SourceType, r.TargetType, r.Class, strings.Join(perms, " "))
}

// Module is a named, versioned group of allow rules that can be loaded and
// unloaded at runtime — the modular policy deployment of §V-B.1.
type Module struct {
	Name    string
	Version uint64
	Rules   []AllowRule
}

// Validate checks the module and its rules.
func (m *Module) Validate() error {
	if strings.TrimSpace(m.Name) == "" {
		return errors.New("mac: module has no name")
	}
	for i, r := range m.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("mac: module %q rule %d: %w", m.Name, i, err)
		}
	}
	return nil
}

// EnforceMode selects how denials are handled.
type EnforceMode uint8

// Enforcement modes.
const (
	// Enforcing blocks denied accesses.
	Enforcing EnforceMode = iota + 1
	// Permissive logs denials but allows the access (SELinux permissive).
	Permissive
)

// String returns the mode name.
func (m EnforceMode) String() string {
	switch m {
	case Enforcing:
		return "enforcing"
	case Permissive:
		return "permissive"
	default:
		return "invalid"
	}
}

// Decision is the outcome of one access check.
type Decision struct {
	// Allowed reports whether the access may proceed.
	Allowed bool
	// Granted reports whether policy granted the access (differs from
	// Allowed under permissive mode or kernel compromise).
	Granted bool
	// Bypassed reports the check was skipped due to kernel compromise.
	Bypassed bool
}

// AuditRecord is one entry in the audit log.
type AuditRecord struct {
	Seq     uint64
	Source  Context
	Target  Context
	Class   Class
	Perm    Permission
	Allowed bool
	Reason  string
}

// String renders an auditd-like line.
func (a AuditRecord) String() string {
	verb := "denied"
	if a.Allowed {
		verb = "granted"
	}
	return fmt.Sprintf("avc[%d]: %s { %s } for scontext=%s tcontext=%s tclass=%s %s",
		a.Seq, verb, a.Perm, a.Source, a.Target, a.Class, a.Reason)
}

// avcKey indexes the access-vector cache.
type avcKey struct {
	src, tgt string
	class    Class
}

// permBits is a bitmask of granted permissions: bit i set means the
// permission interned at bit position i is granted. Permissions beyond 64
// distinct names spill into the server's overflow map.
type permBits uint64

// ruleKey indexes the dense rule index: interned source type, target type
// and class identifiers.
type ruleKey struct {
	src, tgt, class uint32
}

// Stats counts server activity.
type Stats struct {
	Checks    uint64
	Granted   uint64
	Denied    uint64
	Bypassed  uint64
	AVCHits   uint64
	AVCMisses uint64
	Loads     uint64
	Unloads   uint64
}

// Server is the MAC policy server. The zero value is unusable; construct
// with NewServer.
//
// By default a Server is safe for concurrent use. A caller that confines the
// server to a single goroutine (the fleet engine's per-worker arenas do) can
// construct it WithSingleOwner to drop the mutex from the Check hot path.
//
// Rule resolution is backed by a dense index precomputed at Load/Unload
// time: source/target types and classes are interned to dense integer
// identifiers and each (src, tgt, class) triple maps to a bitmask of granted
// permissions, so a check — with or without the AVC — costs a handful of map
// probes and allocates nothing, instead of the former linear scan over every
// loaded module that materialised a fresh permission map per AVC miss.
type Server struct {
	mu          sync.Mutex
	single      bool // single-owner mode: skip the mutex
	modules     map[string]*Module
	mode        EnforceMode
	initMode    EnforceMode // mode configured at construction, for Reset
	avc         map[avcKey]permBits
	avcEnabled  bool
	avcCap      int
	compromised bool
	audit       []AuditRecord
	auditCap    int
	seq         uint64
	stats       Stats

	// Dense rule index, rebuilt by reindexLocked on every Load/Unload.
	typeIDs  map[string]uint32
	classIDs map[Class]uint32
	permIDs  map[Permission]uint32 // bit positions, < 64
	index    map[ruleKey]permBits
	overflow map[ruleKey]map[Permission]bool // permissions past 64 bit positions
}

// Option configures a Server.
type Option func(*Server)

// WithMode sets the initial enforcement mode (default Enforcing).
func WithMode(m EnforceMode) Option { return func(s *Server) { s.mode = m } }

// WithAVC enables or disables the access-vector cache (default enabled).
func WithAVC(enabled bool) Option { return func(s *Server) { s.avcEnabled = enabled } }

// WithAVCCapacity bounds the AVC entry count (default 4096).
func WithAVCCapacity(n int) Option { return func(s *Server) { s.avcCap = n } }

// WithAuditCapacity bounds the in-memory audit ring (default 1024).
func WithAuditCapacity(n int) Option { return func(s *Server) { s.auditCap = n } }

// WithSingleOwner confines the server to a single goroutine: the caller
// asserts every method call happens on one goroutine (or with ownership
// handed over through a synchronising operation), and the server stops
// taking its internal mutex on every check.
func WithSingleOwner() Option { return func(s *Server) { s.single = true } }

// NewServer creates a MAC server with no modules loaded. With no modules
// every access is denied: type enforcement is default-deny, like the
// policy engine.
func NewServer(opts ...Option) *Server {
	s := &Server{
		modules:    map[string]*Module{},
		mode:       Enforcing,
		avc:        map[avcKey]permBits{},
		avcEnabled: true,
		avcCap:     4096,
		auditCap:   1024,
		typeIDs:    map[string]uint32{},
		classIDs:   map[Class]uint32{},
		permIDs:    map[Permission]uint32{},
		index:      map[ruleKey]permBits{},
	}
	for _, o := range opts {
		o(s)
	}
	s.initMode = s.mode
	return s
}

// lock and unlock guard server state; no-ops in single-owner mode.
func (s *Server) lock() {
	if !s.single {
		s.mu.Lock()
	}
}

func (s *Server) unlock() {
	if !s.single {
		s.mu.Unlock()
	}
}

// Mode returns the current enforcement mode.
func (s *Server) Mode() EnforceMode {
	s.lock()
	defer s.unlock()
	return s.mode
}

// SetMode switches between enforcing and permissive.
func (s *Server) SetMode(m EnforceMode) {
	s.lock()
	defer s.unlock()
	s.mode = m
}

// Load installs or upgrades a module and invalidates the AVC.
// Upgrading requires a strictly newer version.
func (s *Server) Load(m *Module) error {
	if err := m.Validate(); err != nil {
		return err
	}
	s.lock()
	defer s.unlock()
	if old, ok := s.modules[m.Name]; ok && m.Version <= old.Version {
		return fmt.Errorf("mac: module %q version %d not newer than loaded %d",
			m.Name, m.Version, old.Version)
	}
	cp := *m
	cp.Rules = append([]AllowRule(nil), m.Rules...)
	s.modules[m.Name] = &cp
	s.reindexLocked()
	s.stats.Loads++
	return nil
}

// Unload removes a module and invalidates the AVC.
func (s *Server) Unload(name string) bool {
	s.lock()
	defer s.unlock()
	if _, ok := s.modules[name]; !ok {
		return false
	}
	delete(s.modules, name)
	s.reindexLocked()
	s.stats.Unloads++
	return true
}

// reindexLocked rebuilds the dense rule index from the loaded modules and
// flushes the AVC. Modules are walked in sorted name order and rules in
// declaration order, so interned identifiers — and therefore every
// downstream decision and statistic — are deterministic for a given module
// set regardless of load history.
func (s *Server) reindexLocked() {
	clear(s.typeIDs)
	clear(s.classIDs)
	clear(s.permIDs)
	clear(s.index)
	clear(s.avc)
	s.overflow = nil
	names := make([]string, 0, len(s.modules))
	for n := range s.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, r := range s.modules[name].Rules {
			key := ruleKey{
				src:   internID(s.typeIDs, r.SourceType),
				tgt:   internID(s.typeIDs, r.TargetType),
				class: internID(s.classIDs, r.Class),
			}
			bits := s.index[key]
			for _, p := range r.Perms {
				if pid, ok := s.permIDs[p]; ok {
					bits |= 1 << pid
				} else if next := uint32(len(s.permIDs)); next < 64 {
					s.permIDs[p] = next
					bits |= 1 << next
				} else {
					// 65th+ distinct permission: spill into the overflow map,
					// still precomputed here so checks never allocate.
					if s.overflow == nil {
						s.overflow = map[ruleKey]map[Permission]bool{}
					}
					ov := s.overflow[key]
					if ov == nil {
						ov = map[Permission]bool{}
						s.overflow[key] = ov
					}
					ov[p] = true
				}
			}
			s.index[key] = bits
		}
	}
}

// internID returns the dense identifier for v, assigning the next one on
// first sight.
func internID[K comparable](m map[K]uint32, v K) uint32 {
	if id, ok := m[v]; ok {
		return id
	}
	id := uint32(len(m))
	m[v] = id
	return id
}

// Modules returns the loaded module names, sorted.
func (s *Server) Modules() []string {
	s.lock()
	defer s.unlock()
	out := make([]string, 0, len(s.modules))
	for n := range s.modules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CompromiseKernel models the firmware/kernel compromise of §V-B.2: all
// subsequent checks are bypassed (allowed without consulting policy), the
// way a rooted kernel no longer enforces its own LSM hooks.
func (s *Server) CompromiseKernel() {
	s.lock()
	defer s.unlock()
	s.compromised = true
}

// Compromised reports whether the kernel-compromise injection is active.
func (s *Server) Compromised() bool {
	s.lock()
	defer s.unlock()
	return s.compromised
}

// Restore clears the compromise injection (re-flash / reboot from clean image).
func (s *Server) Restore() {
	s.lock()
	defer s.unlock()
	s.compromised = false
}

// Check evaluates one access. It consults the AVC first, then scans loaded
// modules; the result is cached. Audit records are appended for denials and
// for bypassed checks.
func (s *Server) Check(src, tgt Context, class Class, perm Permission) Decision {
	s.lock()
	defer s.unlock()
	s.stats.Checks++
	if s.compromised {
		s.stats.Bypassed++
		s.auditLocked(src, tgt, class, perm, true, "bypassed: kernel compromised")
		return Decision{Allowed: true, Granted: false, Bypassed: true}
	}
	granted := s.lookupLocked(src.Type, tgt.Type, class, perm)
	allowed := granted
	reason := ""
	if !granted {
		s.stats.Denied++
		if s.mode == Permissive {
			allowed = true
			reason = "permissive"
		}
		s.auditLocked(src, tgt, class, perm, allowed, reason)
	} else {
		s.stats.Granted++
	}
	return Decision{Allowed: allowed, Granted: granted}
}

// lookupLocked resolves a permission against the dense rule index, using
// the AVC when enabled. Allocation-free on every path.
func (s *Server) lookupLocked(srcType, tgtType string, class Class, perm Permission) bool {
	var bits permBits
	if s.avcEnabled {
		key := avcKey{src: srcType, tgt: tgtType, class: class}
		cached, ok := s.avc[key]
		if ok {
			s.stats.AVCHits++
			bits = cached
		} else {
			s.stats.AVCMisses++
			bits = s.resolveBitsLocked(srcType, tgtType, class)
			if len(s.avc) >= s.avcCap {
				// Full cache: drop it entirely. Real AVCs evict LRU; wholesale
				// invalidation keeps the model simple and still bounded.
				clear(s.avc)
			}
			s.avc[key] = bits
		}
	} else {
		bits = s.resolveBitsLocked(srcType, tgtType, class)
	}
	if pid, ok := s.permIDs[perm]; ok {
		return bits&(1<<pid) != 0
	}
	if s.overflow != nil {
		return s.overflowGrantedLocked(srcType, tgtType, class, perm)
	}
	return false
}

// resolveBitsLocked computes the granted-permission bitmask for a triple
// from the dense index. Types or classes no rule mentions resolve to the
// empty mask (default deny).
func (s *Server) resolveBitsLocked(srcType, tgtType string, class Class) permBits {
	sid, ok := s.typeIDs[srcType]
	if !ok {
		return 0
	}
	tid, ok := s.typeIDs[tgtType]
	if !ok {
		return 0
	}
	cid, ok := s.classIDs[class]
	if !ok {
		return 0
	}
	return s.index[ruleKey{src: sid, tgt: tid, class: cid}]
}

// overflowGrantedLocked checks the precomputed spill map for permissions
// past the 64 bitmask positions.
func (s *Server) overflowGrantedLocked(srcType, tgtType string, class Class, perm Permission) bool {
	sid, ok := s.typeIDs[srcType]
	if !ok {
		return false
	}
	tid, ok := s.typeIDs[tgtType]
	if !ok {
		return false
	}
	cid, ok := s.classIDs[class]
	if !ok {
		return false
	}
	return s.overflow[ruleKey{src: sid, tgt: tid, class: cid}][perm]
}

func (s *Server) auditLocked(src, tgt Context, class Class, perm Permission, allowed bool, reason string) {
	s.seq++
	rec := AuditRecord{
		Seq: s.seq, Source: src, Target: tgt,
		Class: class, Perm: perm, Allowed: allowed, Reason: reason,
	}
	if len(s.audit) >= s.auditCap {
		copy(s.audit, s.audit[1:])
		s.audit = s.audit[:len(s.audit)-1]
	}
	s.audit = append(s.audit, rec)
}

// Audit returns a copy of the audit log (oldest first).
func (s *Server) Audit() []AuditRecord {
	s.lock()
	defer s.unlock()
	return append([]AuditRecord(nil), s.audit...)
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	s.lock()
	defer s.unlock()
	return s.stats
}

// Reset restores the server to its state immediately after construction and
// module loading, without releasing memory: the kernel-compromise injection
// is cleared, the enforcement mode returns to its constructed value, the
// AVC is flushed, the audit log and its sequence are emptied, and all
// statistics except the Loads/Unloads module-lifecycle counters are zeroed.
// Loaded modules and the precomputed rule index are kept — that is the
// point: a reset server answers every Check exactly as a freshly built one
// loaded with the same modules, at zero rebuild cost.
func (s *Server) Reset() {
	s.lock()
	defer s.unlock()
	s.compromised = false
	s.mode = s.initMode
	clear(s.avc)
	s.audit = s.audit[:0]
	s.seq = 0
	loads, unloads := s.stats.Loads, s.stats.Unloads
	s.stats = Stats{Loads: loads, Unloads: unloads}
}
