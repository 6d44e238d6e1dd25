package chaos

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestCellFaultDeterministic: fault decisions are a pure function of the
// plan and the cell coordinates — the property every Health-determinism
// guarantee upstream rests on.
func TestCellFaultDeterministic(t *testing.T) {
	p := &Plan{Seed: 42, Panic: 0.1, Corrupt: 0.1, Deadline: 0.1, Crash: 0.05}
	for v := 0; v < 50; v++ {
		for g := 0; g < 3; g++ {
			for s := 0; s < 4; s++ {
				k1, ok1 := p.CellFault(v, g, 0, s, 0)
				k2, ok2 := p.CellFault(v, g, 0, s, 0)
				if k1 != k2 || ok1 != ok2 {
					t.Fatalf("CellFault(%d,%d,0,%d,0) not deterministic: (%v,%v) vs (%v,%v)",
						v, g, s, k1, ok1, k2, ok2)
				}
			}
			c1 := p.CrashFault(v, g, 0)
			c2 := p.CrashFault(v, g, 0)
			if c1 != c2 {
				t.Fatalf("CrashFault(%d,%d,0) not deterministic", v, g)
			}
		}
	}
}

// TestCellFaultRates: injected fault frequency tracks the configured rate
// (loose bands — the roll is uniform over 2^53 buckets, not a statistics
// final), and distinct kinds land at independent coordinates.
func TestCellFaultRates(t *testing.T) {
	p := &Plan{Seed: 7, Panic: 0.2}
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if k, ok := p.CellFault(i, 0, 0, 0, 0); ok {
			if k != KindPanic {
				t.Fatalf("only panic armed, got kind %v", k)
			}
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.2) > 0.03 {
		t.Errorf("panic rate %.3f, want ~0.2", got)
	}
}

// TestPersistSemantics: persist=k faults a coordinate's first k attempts and
// then stops, so a supervisor with enough retries always recovers; the
// default persist=1 means any single retry clears an injected fault.
func TestPersistSemantics(t *testing.T) {
	p := &Plan{Seed: 3, Panic: 1, Persist: 3}
	for attempt := 0; attempt < 3; attempt++ {
		if _, ok := p.CellFault(0, 0, 0, 0, attempt); !ok {
			t.Fatalf("attempt %d: fault did not persist (persist=3)", attempt)
		}
	}
	if _, ok := p.CellFault(0, 0, 0, 0, 3); ok {
		t.Fatal("attempt 3 still faulted with persist=3")
	}
	def := &Plan{Seed: 3, Panic: 1}
	if _, ok := def.CellFault(0, 0, 0, 0, 0); !ok {
		t.Fatal("default persist: first attempt must fault at rate 1")
	}
	if _, ok := def.CellFault(0, 0, 0, 0, 1); ok {
		t.Fatal("default persist: retry must clear the fault")
	}
}

// TestNilPlanInert: a nil plan injects nothing and reports inactive — the
// supervisor's no-chaos fast path never branches on it.
func TestNilPlanInert(t *testing.T) {
	var p *Plan
	if p.Active() {
		t.Error("nil plan reports active")
	}
	if _, ok := p.CellFault(1, 2, 3, 4, 0); ok {
		t.Error("nil plan injected a cell fault")
	}
	if p.CrashFault(1, 2, 0) {
		t.Error("nil plan injected a crash")
	}
	if s := p.String(); s != "off" {
		t.Errorf("nil plan String() = %q, want off", s)
	}
}

// TestParseRoundTrip: Parse(p.String()) reproduces the plan, the contract
// that lets CI scripts pass rendered specs back through -chaos.
func TestParseRoundTrip(t *testing.T) {
	plans := []*Plan{
		{Seed: 7, Panic: 0.01},
		{Seed: 42, Panic: 0.02, Corrupt: 0.005, Deadline: 0.002, Crash: 0.001},
		{Seed: 1, Deadline: 0.5, Persist: 4},
	}
	for _, p := range plans {
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if *got != *p {
			t.Errorf("round trip %q: got %+v, want %+v", p.String(), got, p)
		}
	}
	for _, off := range []string{"", "off"} {
		p, err := Parse(off)
		if err != nil || p != nil {
			t.Errorf("Parse(%q) = (%v, %v), want (nil, nil)", off, p, err)
		}
	}
}

// TestParseRejectsBadSpecs: malformed specs fail loudly instead of silently
// disarming the injection they were meant to configure.
func TestParseRejectsBadSpecs(t *testing.T) {
	for _, bad := range []string{
		"panic",           // no value
		"panic=x",         // not a number
		"panic=1.5",       // rate out of range
		"panic=-0.1",      // negative rate
		"panic=NaN",       // not a rate: NaN fails both bound checks
		"persist=0",       // persist below 1
		"bogus=0.5",       // unknown key
		"seed=zz",         // bad seed
		"panic=0.1,,",     // empty component
		"panic=0.1 crash", // missing separator
	} {
		if p, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", bad, p)
		}
	}
}

// TestInjectedErrorsIdentifyCoordinates: the panic and crash payloads name
// their injection site, so a quarantine record is debuggable on its own.
func TestInjectedErrorsIdentifyCoordinates(t *testing.T) {
	ip := &InjectedPanic{Vehicle: 3, Group: 1, Regime: 2, Scenario: 7, Attempt: 1}
	for _, frag := range []string{"vehicle 3", "group 1", "regime 2", "scenario 7", "attempt 1"} {
		if !strings.Contains(ip.String(), frag) {
			t.Errorf("InjectedPanic %q missing %q", ip, frag)
		}
	}
	ic := &InjectedCrash{Vehicle: 5, Group: 0, Attempt: 2}
	for _, frag := range []string{"vehicle 5", "group 0", "attempt 2"} {
		if !strings.Contains(ic.String(), frag) {
			t.Errorf("InjectedCrash %q missing %q", ic, frag)
		}
	}
	if !errors.Is(ErrDeadline, ErrDeadline) {
		t.Fatal("ErrDeadline lost identity")
	}
}

// TestRollRange: rolls land in [0, 1) and differ across salts and
// coordinates (the kinds must not fault in lockstep).
func TestRollRange(t *testing.T) {
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		r := Roll(9, 0x51, i, 0, 0)
		if r < 0 || r >= 1 {
			t.Fatalf("Roll out of range: %v", r)
		}
		seen[r] = true
	}
	if len(seen) < 95 {
		t.Errorf("only %d distinct rolls in 100 — mixer too weak", len(seen))
	}
	if Roll(9, 0x51, 1, 2, 3) == Roll(9, 0x52, 1, 2, 3) {
		t.Error("salts collide")
	}
}
