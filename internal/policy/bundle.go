package policy

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// This file implements the post-deployment policy update mechanism of
// §V-A.2: "the OEM can distribute a policy definition update ... which would
// be significantly faster and easier to implement than a software redesign
// or product recall." A Bundle is the distributable artifact: the policy
// DSL source plus an ed25519 signature from the OEM. A Store is the
// device-resident endpoint that verifies, compiles and atomically installs
// updates.

// Bundle is a signed, versioned policy distribution unit.
type Bundle struct {
	// Source is the policy DSL document.
	Source string `json:"source"`
	// Name and Version duplicate the parsed set's header so endpoints can
	// check monotonicity before parsing.
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// Signature is the OEM's ed25519 signature over the canonical payload.
	Signature []byte `json:"signature"`
}

// Bundle errors.
var (
	ErrBadSignature = errors.New("policy: bundle signature verification failed")
	ErrStaleVersion = errors.New("policy: bundle version is not newer than installed")
	ErrNameMismatch = errors.New("policy: bundle name does not match installed policy")
	ErrHeaderDrift  = errors.New("policy: bundle header disagrees with its source")
)

// canonicalPayload is the byte string that gets signed: the JSON encoding of
// the bundle with its signature field zeroed. encoding/json emits struct
// fields in declaration order, so the encoding is deterministic.
func (b Bundle) canonicalPayload() ([]byte, error) {
	b.Signature = nil
	return json.Marshal(b)
}

// Sign builds a signed bundle from DSL source using the OEM's private key.
// The source is parsed to populate and cross-check the header.
func Sign(source string, key ed25519.PrivateKey) (*Bundle, error) {
	set, err := Parse(source)
	if err != nil {
		return nil, fmt.Errorf("policy: signing unparseable source: %w", err)
	}
	b := &Bundle{Source: source, Name: set.Name, Version: set.Version}
	payload, err := b.canonicalPayload()
	if err != nil {
		return nil, err
	}
	b.Signature = ed25519.Sign(key, payload)
	return b, nil
}

// Verify checks the bundle's signature and header consistency, returning
// the parsed set on success.
func (b *Bundle) Verify(pub ed25519.PublicKey) (*Set, error) {
	payload, err := b.canonicalPayload()
	if err != nil {
		return nil, err
	}
	if !ed25519.Verify(pub, payload, b.Signature) {
		return nil, ErrBadSignature
	}
	set, err := Parse(b.Source)
	if err != nil {
		return nil, err
	}
	if set.Name != b.Name || set.Version != b.Version {
		return nil, fmt.Errorf("%w: header %s/%d, source %s/%d",
			ErrHeaderDrift, b.Name, b.Version, set.Name, set.Version)
	}
	return set, nil
}

// Encode serialises the bundle for distribution.
func (b *Bundle) Encode() ([]byte, error) { return json.Marshal(b) }

// DecodeBundle deserialises a distributed bundle.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("policy: bad bundle encoding: %w", err)
	}
	return &b, nil
}

// UpdateListener observes successful policy installations.
type UpdateListener func(installed *Compiled)

// Store is the device-resident policy endpoint: it verifies incoming
// bundles, enforces version monotonicity, compiles the new set and swaps it
// in atomically. Readers never observe a half-installed policy.
type Store struct {
	pub  ed25519.PublicKey
	opts CompileOptions

	mu        sync.RWMutex
	set       *Set
	listeners []UpdateListener
	applied   uint64
	rejected  uint64

	// deliverMu sequences listener delivery in install order. Apply acquires
	// it while still holding mu (lock order mu → deliverMu, never reversed),
	// so two racing successful applies (v2, v3) cannot deliver callbacks out
	// of order: whoever installed first delivers first, and a subscriber's
	// last-observed version is monotone.
	deliverMu sync.Mutex
}

// NewStore creates a store trusting the given OEM public key and compiling
// with the given options (the device's subjects and modes).
func NewStore(pub ed25519.PublicKey, opts CompileOptions) *Store {
	return &Store{pub: pub, opts: opts}
}

// Subscribe registers a listener called after each successful installation.
func (s *Store) Subscribe(l UpdateListener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, l)
}

// CurrentSet returns the installed source set, or nil before first install.
func (s *Store) CurrentSet() *Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.set
}

// Stats reports how many bundles were applied and rejected.
func (s *Store) Stats() (applied, rejected uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied, s.rejected
}

// Apply verifies and installs a bundle. On any failure the installed policy
// is untouched.
func (s *Store) Apply(b *Bundle) (*Compiled, error) {
	set, err := s.verify(b)
	if err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, err
	}
	compiled, err := Compile(set, s.opts)
	if err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Lock()
	// Re-check monotonicity under the write lock: a concurrent Apply may
	// have won the race since verify.
	if s.set != nil && compiled.Version <= s.set.Version {
		s.rejected++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: have %d, got %d", ErrStaleVersion, s.set.Version, compiled.Version)
	}
	s.set = set
	s.applied++
	listeners := append([]UpdateListener(nil), s.listeners...)
	// Take the delivery lock before releasing mu: the apply that installed
	// v2 then holds the delivery turn before the apply installing v3 can
	// even commit, so subscribers observe versions in install order. mu is
	// released before the callbacks run, so listeners may read back into
	// the store (CurrentSet, Stats) without deadlocking; a
	// listener must not call Apply from its own goroutine (delivery is
	// sequenced, so that would self-deadlock).
	s.deliverMu.Lock()
	s.mu.Unlock()
	for _, l := range listeners {
		l(compiled)
	}
	s.deliverMu.Unlock()
	return compiled, nil
}

func (s *Store) verify(b *Bundle) (*Set, error) {
	set, err := b.Verify(s.pub)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	cur := s.set
	s.mu.RUnlock()
	if cur != nil {
		if cur.Name != set.Name {
			return nil, fmt.Errorf("%w: have %q, got %q", ErrNameMismatch, cur.Name, set.Name)
		}
		if set.Version <= cur.Version {
			return nil, fmt.Errorf("%w: have %d, got %d", ErrStaleVersion, cur.Version, set.Version)
		}
	}
	return set, nil
}
