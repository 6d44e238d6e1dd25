package car

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/policy"
)

// Table I's car modes are not free-form states: Remote Diagnostic mode is
// "reserved for maintenance by manufacturer or authorised engineer" and
// Fail-safe is "reserved for emergency situation". ModeManager enforces a
// transition matrix over Car.SetMode, requiring an authorisation credential
// where the paper reserves a mode, and keeps a transition log for audit.
//
// Unauthorised mode transitions are themselves an attack vector (Table I
// row 4 overrides fail-safe protection; row 15 falsely triggers fail-safe),
// so the matrix is part of the security model, not just bookkeeping.

// ModeAuthorizer validates a diagnostic/service credential. The core
// package provides an ed25519-backed implementation tied to the OEM key.
type ModeAuthorizer interface {
	// Authorize reports whether token authorises reserved-mode entry on
	// this vehicle.
	Authorize(token []byte) bool
}

// ModeTransition is one entry of the transition log.
type ModeTransition struct {
	// At is the virtual time of the transition attempt.
	At time.Duration
	// From and To are the modes involved.
	From, To policy.Mode
	// Authorized reports whether a valid credential accompanied the request.
	Authorized bool
	// Granted reports whether the transition happened.
	Granted bool
}

// String renders one log line.
func (t ModeTransition) String() string {
	outcome := "denied"
	if t.Granted {
		outcome = "granted"
	}
	return fmt.Sprintf("%v %s -> %s (%s, authorized=%v)", t.At, t.From, t.To, outcome, t.Authorized)
}

// Mode transition errors.
var (
	ErrModeUnauthorized = errors.New("car: mode transition requires authorisation")
	ErrModeForbidden    = errors.New("car: mode transition not permitted")
	ErrModeUnknown      = errors.New("car: unknown mode")
)

// ModeManager gates mode changes on the transition matrix. It is owned like
// the car it wraps: every call runs on the goroutine that drives the car.
type ModeManager struct {
	car  *Car
	auth ModeAuthorizer
	log  []ModeTransition
}

// NewModeManager wraps a car. auth may be nil, in which case every
// reserved transition is denied (fail closed).
func NewModeManager(c *Car, auth ModeAuthorizer) *ModeManager {
	return &ModeManager{car: c, auth: auth}
}

// transitionKind classifies an edge of the matrix.
type transitionKind uint8

const (
	transitionFree transitionKind = iota + 1
	transitionAuth
	transitionDenied
)

// matrix returns the kind of the (from, to) edge.
func matrix(from, to policy.Mode) transitionKind {
	if from == to {
		return transitionFree
	}
	switch from {
	case ModeNormal:
		switch to {
		case ModeRemoteDiag:
			return transitionAuth // reserved for authorised engineers
		case ModeFailSafe:
			return transitionFree // emergencies cannot wait for credentials
		}
	case ModeRemoteDiag:
		switch to {
		case ModeNormal:
			return transitionFree
		case ModeFailSafe:
			return transitionFree // emergency during maintenance
		}
	case ModeFailSafe:
		switch to {
		case ModeNormal:
			return transitionAuth // leaving fail-safe is a service action
		case ModeRemoteDiag:
			return transitionAuth // crash investigation by authorised staff
		}
	}
	return transitionDenied
}

// Request attempts a transition to the target mode with an optional
// credential. On success the car's mode changes (and with it, instantly,
// every deployed policy engine's active tables).
func (m *ModeManager) Request(to policy.Mode, token []byte) error {
	valid := false
	switch to {
	case ModeNormal, ModeRemoteDiag, ModeFailSafe:
		valid = true
	}
	if !valid {
		return fmt.Errorf("%w: %q", ErrModeUnknown, to)
	}
	from := m.car.Mode()
	authorized := token != nil && m.auth != nil && m.auth.Authorize(token)
	kind := matrix(from, to)
	granted := false
	switch kind {
	case transitionFree:
		granted = true
	case transitionAuth:
		granted = authorized
	}
	m.log = append(m.log, ModeTransition{
		At: m.car.Scheduler().Now(), From: from, To: to,
		Authorized: authorized, Granted: granted,
	})
	if !granted {
		if kind == transitionAuth {
			return fmt.Errorf("%w: %s -> %s", ErrModeUnauthorized, from, to)
		}
		return fmt.Errorf("%w: %s -> %s", ErrModeForbidden, from, to)
	}
	m.car.SetMode(to)
	return nil
}

// Log returns a copy of the transition log (oldest first).
func (m *ModeManager) Log() []ModeTransition { return append([]ModeTransition(nil), m.log...) }
