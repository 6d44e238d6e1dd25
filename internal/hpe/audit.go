package hpe

import (
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/policy"
)

// This file adds the engine's audit facility. The paper's §IV assigns the
// software layer the job of "identifying anomalous behaviour"; blocked
// frames at the hardware engine are the rawest anomaly signal there is, so
// the engine can record them into a bounded ring for the host to drain.

// AuditRecord is one blocked frame.
type AuditRecord struct {
	// Seq increases monotonically per engine.
	Seq uint64
	// At is the virtual time of the decision (zero if no clock installed).
	At time.Duration
	// Subject is the protected node.
	Subject string
	// Direction of the blocked frame.
	Direction canbus.Direction
	// Mode the device was in.
	Mode policy.Mode
	// ID and DLC of the blocked frame (payload is deliberately not stored:
	// the audit channel must not become an exfiltration channel).
	ID  uint32
	DLC uint8
}

// String renders one audit line.
func (r AuditRecord) String() string {
	return fmt.Sprintf("hpe[%d] %v %s blocked %s 0x%03X dlc=%d (mode %s)",
		r.Seq, r.At, r.Subject, r.Direction, r.ID, r.DLC, r.Mode)
}

// Auditor is the bounded blocked-frame ring attached to an Engine. It is
// owned like the engine it is attached to: the host drains it on the
// vehicle's goroutine.
type Auditor struct {
	cap   int
	seq   uint64
	ring  []AuditRecord
	clock func() time.Duration
}

// NewAuditor creates an auditor keeping up to capacity records (default 256
// when capacity <= 0). clock may be nil.
func NewAuditor(capacity int, clock func() time.Duration) *Auditor {
	if capacity <= 0 {
		capacity = 256
	}
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Auditor{cap: capacity, clock: clock}
}

// record appends one blocked-frame record, evicting the oldest at capacity.
func (a *Auditor) record(subject string, dir canbus.Direction, mode policy.Mode, f canbus.Frame) {
	a.seq++
	rec := AuditRecord{
		Seq: a.seq, At: a.clock(), Subject: subject,
		Direction: dir, Mode: mode, ID: f.ID, DLC: f.DLC,
	}
	if len(a.ring) >= a.cap {
		copy(a.ring, a.ring[1:])
		a.ring = a.ring[:len(a.ring)-1]
	}
	a.ring = append(a.ring, rec)
}

// Drain returns and clears the recorded blocks (oldest first).
func (a *Auditor) Drain() []AuditRecord {
	out := a.ring
	a.ring = nil
	return out
}

// Len returns the number of buffered records.
func (a *Auditor) Len() int { return len(a.ring) }

// AttachAuditor installs (or, with nil, removes) the engine's auditor.
func (e *Engine) AttachAuditor(a *Auditor) { e.auditor = a }
