package attack

import (
	"errors"
	"testing"
	"time"
)

// TestCaptureNotQuiescentReturnsTypedError: capturing with events still
// queued returns ErrNotQuiescent instead of panicking — the retryable fault
// the sweep supervisor quarantines — and a quiescent capture succeeds.
func TestCaptureNotQuiescentReturnsTypedError(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.NewArena()
	if err != nil {
		t.Fatal(err)
	}
	a.resetForRegime(EnforceHPE)
	var ck checkpoint
	if err := a.capture(&ck, EnforceHPE); err != nil {
		t.Fatalf("quiescent capture failed: %v", err)
	}

	// Leave the scheduler non-quiescent: queued traffic events, not run.
	a.car.StartTraffic(time.Millisecond, 10*time.Millisecond, 42)
	if err := a.capture(&ck, EnforceHPE); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("non-quiescent capture: got %v, want ErrNotQuiescent", err)
	}
	a.car.Scheduler().Run() // drain so the arena is reusable
}
