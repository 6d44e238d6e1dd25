package attack

import (
	"testing"
	"time"
)

func TestLatencyBaselineNoFlood(t *testing.T) {
	h := harness(t)
	stats, err := h.MeasureLatency(LatencyConfig{Enforce: EnforceNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("classes = %d", len(stats))
	}
	for _, s := range stats {
		if s.Sent == 0 {
			t.Fatalf("%s sent nothing", s.Class)
		}
		if s.Delivered < s.Sent-2 { // tail frames may still be in flight
			t.Errorf("%s delivered %d of %d", s.Class, s.Delivered, s.Sent)
		}
		// An idle 500 kbit/s bus delivers a frame in ~130 bit times ≈ 260µs.
		if s.Mean > 2*time.Millisecond {
			t.Errorf("%s mean latency %v on an idle bus", s.Class, s.Mean)
		}
	}
}

// TestLatencyFloodStarvesWithoutEnforcement reproduces the CAN
// priority-inversion DoS: a top-priority flood starves every legitimate
// class, including safety-critical traffic.
func TestLatencyFloodStarvesWithoutEnforcement(t *testing.T) {
	h := harness(t)
	quiet, err := h.MeasureLatency(LatencyConfig{Enforce: EnforceNone})
	if err != nil {
		t.Fatal(err)
	}
	flooded, err := h.MeasureLatency(LatencyConfig{Enforce: EnforceNone, Flood: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range flooded {
		if s.Mean < 4*quiet[i].Mean {
			t.Errorf("%s: flood mean %v not >> quiet mean %v", s.Class, s.Mean, quiet[i].Mean)
		}
	}
}

// TestLatencyFloodNeutralisedByHPE: the attacker's write filter kills the
// flood before it reaches the bus, so latencies stay nominal.
func TestLatencyFloodNeutralisedByHPE(t *testing.T) {
	h := harness(t)
	flooded, err := h.MeasureLatency(LatencyConfig{Enforce: EnforceHPE, Flood: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range flooded {
		if s.Delivered < s.Sent-2 {
			t.Errorf("%s delivered %d of %d under HPE", s.Class, s.Delivered, s.Sent)
		}
		if s.Mean > 2*time.Millisecond {
			t.Errorf("%s mean latency %v under HPE during flood", s.Class, s.Mean)
		}
	}
}
