// Package chaos is the deterministic fault-injection layer of the fleet
// engine's sweep supervisor: a seeded Plan decides, as a pure function of
// (plan seed, vehicle, group, regime, scenario, attempt), whether a fault
// fires at that coordinate and of which kind. Decisions derive through the
// same SplitMix64 step as vehicle seeds, so a chaos run inherits the stack's
// determinism contract wholesale — the same Plan against the same sweep
// config injects the same faults in the same places whatever the worker
// count or arena pooling mode, which is what makes a Health section
// byte-stable and a chaos smoke diffable in CI.
//
// The package only decides; it never touches the simulation. The engine's
// supervisor asks CellFault/CrashFault at each execution point and performs
// the actual sabotage (panicking the cell, corrupting the restored arena,
// reporting a deadline overrun, crashing the vehicle visit) itself, then
// recovers through its normal containment ladder. Persist bounds how many
// consecutive attempts of one coordinate keep faulting: Persist=1 faults
// only the first attempt (every retry succeeds — the property-test shape),
// a Persist above the supervisor's retry budget makes the coordinate
// unrecoverable.
package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind is the class of an injected fault.
type Kind uint8

// Fault kinds, in the priority order CellFault resolves collisions
// (a coordinate whose rolls select several kinds reports the first).
const (
	// KindPanic panics the cell mid-execution (a crashing worker cell).
	KindPanic Kind = iota + 1
	// KindCorrupt flips arena state after a checkpoint restore, so the
	// supervisor's integrity checksum must catch it.
	KindCorrupt
	// KindDeadline reports the cell as having overrun its step budget.
	KindDeadline
	// KindCrash kills the whole vehicle visit (a simulated worker/shard
	// crash), recovered at vehicle scope rather than cell scope.
	KindCrash
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindCorrupt:
		return "corrupt"
	case KindDeadline:
		return "deadline"
	case KindCrash:
		return "crash"
	default:
		return "invalid"
	}
}

// ErrDeadline is the injected (or detected) cell deadline overrun the
// supervisor quarantines and retries.
var ErrDeadline = errors.New("chaos: cell deadline overrun")

// InjectedPanic is the value a chaos-injected cell panic carries, so a
// recovered panic is attributable to the plan rather than a real bug.
type InjectedPanic struct {
	Vehicle, Group, Regime, Scenario, Attempt int
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("chaos: injected panic at vehicle %d group %d regime %d scenario %d attempt %d",
		p.Vehicle, p.Group, p.Regime, p.Scenario, p.Attempt)
}

// InjectedCrash is the value a chaos-injected vehicle crash carries.
type InjectedCrash struct {
	Vehicle, Group, Attempt int
}

func (c *InjectedCrash) String() string {
	return fmt.Sprintf("chaos: injected crash at vehicle %d group %d attempt %d", c.Vehicle, c.Group, c.Attempt)
}

// Plan is a deterministic fault plan: per-kind rates in [0, 1] rolled
// independently at every coordinate. The zero rate disables a kind; a nil
// *Plan disables the layer entirely.
type Plan struct {
	// Seed feeds every roll; two plans with different seeds fault disjoint
	// coordinate sets even at equal rates.
	Seed uint64
	// Panic, Corrupt, Deadline and Crash are per-kind fault probabilities.
	Panic, Corrupt, Deadline, Crash float64
	// Persist is how many consecutive attempts of one coordinate keep
	// faulting (default 1: only the first attempt faults, every retry
	// succeeds). Set it above the supervisor's retry budget to make a
	// faulted coordinate unrecoverable.
	Persist int
}

// Per-kind salts decorrelate the rolls of one coordinate.
const (
	saltPanic uint64 = iota + 0x51
	saltCorrupt
	saltDeadline
	saltCrash
)

// mix is one SplitMix64 finalisation step folding v into h — the same
// generator the per-vehicle seed derivation uses, so chaos coordinates
// decorrelate with identical quality.
func mix(h, v uint64) uint64 {
	z := h + (v+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Roll derives a deterministic uniform value in [0, 1) from a seed, a salt
// and integer coordinates. Exported because the supervisor's verification
// sampler shares the generator (same determinism contract, different salt
// space).
func Roll(seed, salt uint64, coords ...int) float64 {
	h := mix(seed, salt)
	for _, c := range coords {
		h = mix(h, uint64(c))
	}
	return float64(h>>11) / (1 << 53)
}

func (p *Plan) persist() int {
	if p.Persist <= 0 {
		return 1
	}
	return p.Persist
}

// CellFault reports whether a fault fires at one cell-attempt coordinate and
// which kind. Kinds roll independently; collisions resolve in Kind order so
// the decision stays a pure function of the coordinate.
func (p *Plan) CellFault(vehicle, group, regime, scenario, attempt int) (Kind, bool) {
	if p == nil || attempt >= p.persist() {
		return 0, false
	}
	if p.Panic > 0 && Roll(p.Seed, saltPanic, vehicle, group, regime, scenario) < p.Panic {
		return KindPanic, true
	}
	if p.Corrupt > 0 && Roll(p.Seed, saltCorrupt, vehicle, group, regime, scenario) < p.Corrupt {
		return KindCorrupt, true
	}
	if p.Deadline > 0 && Roll(p.Seed, saltDeadline, vehicle, group, regime, scenario) < p.Deadline {
		return KindDeadline, true
	}
	return 0, false
}

// CrashFault reports whether the whole vehicle visit crashes when it reaches
// the given group on the given visit attempt.
func (p *Plan) CrashFault(vehicle, group, attempt int) bool {
	if p == nil || attempt >= p.persist() {
		return false
	}
	return p.Crash > 0 && Roll(p.Seed, saltCrash, vehicle, group) < p.Crash
}

// Active reports whether the plan can fire at all.
func (p *Plan) Active() bool {
	return p != nil && (p.Panic > 0 || p.Corrupt > 0 || p.Deadline > 0 || p.Crash > 0)
}

// String renders the plan in the spec form Parse accepts (round-trip
// stable), e.g. "seed=7,panic=0.02,corrupt=0.01,persist=2".
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	rate := func(name string, v float64) {
		if v > 0 {
			fmt.Fprintf(&b, ",%s=%s", name, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	rate("panic", p.Panic)
	rate("corrupt", p.Corrupt)
	rate("deadline", p.Deadline)
	rate("crash", p.Crash)
	if p.Persist > 1 {
		fmt.Fprintf(&b, ",persist=%d", p.Persist)
	}
	return b.String()
}

// Parse builds a Plan from its comma-separated key=value spec, the carsim
// -chaos flag format: keys seed, panic, corrupt, deadline, crash, persist.
// An empty spec or "off" returns a nil plan (chaos disabled).
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return nil, nil
	}
	p := &Plan{}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("chaos: bad field %q (want key=value)", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "persist":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("chaos: bad persist %q (want integer >= 1)", val)
			}
			p.Persist = n
		case "panic", "corrupt", "deadline", "crash":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || !(r >= 0 && r <= 1) { // NaN fails too
				return nil, fmt.Errorf("chaos: bad %s rate %q (want [0, 1])", key, val)
			}
			switch key {
			case "panic":
				p.Panic = r
			case "corrupt":
				p.Corrupt = r
			case "deadline":
				p.Deadline = r
			case "crash":
				p.Crash = r
			}
		default:
			return nil, fmt.Errorf("chaos: unknown field %q (want seed, panic, corrupt, deadline, crash or persist)", key)
		}
	}
	return p, nil
}
