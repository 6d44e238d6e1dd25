package attack

import "errors"

// Typed failures the sweep supervisor quarantines instead of letting a
// batched sweep abort (or the process die):
var (
	// ErrNotQuiescent reports a checkpoint capture attempted on an arena
	// whose scheduler still has queued events or whose bus is mid-
	// transmission. Scenario prefixes are supposed to drain the scheduler
	// before the capture instant; a violated contract is a scenario bug, and
	// the supervisor demotes the cell to the oracle path rather than
	// crashing the fleet.
	ErrNotQuiescent = errors.New("attack: checkpoint capture on a non-quiescent arena")
	// ErrIntegrity reports a checkpoint restore whose cheap state checksum
	// no longer matches the capture — the restored arena would fork cells
	// from corrupted state, so the supervisor discards the checkpoint and
	// retries from a full reset.
	ErrIntegrity = errors.New("attack: checkpoint integrity checksum mismatch")
)
