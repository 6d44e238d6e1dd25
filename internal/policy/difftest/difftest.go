// Package difftest is the differential-equivalence harness for the policy
// enforcement backends: it holds every backend registered in policy/ir to
// the same closed-world decision contract, decision for decision, against a
// reference specification evaluated directly over the raw rule set.
//
// The harness has three layers, each consumed by a different test surface:
//
//   - Universe enumerates a decisive probe set for a policy: every device
//     subject plus an unknown one, every device mode plus a foreign one,
//     both single-direction actions plus two invalid ones, and every
//     identifier-range boundary (lo-1, lo, hi, hi+1) plus an identifier far
//     outside the universe.
//   - Check compiles the policy with every registered backend and compares
//     each decision — through both Enforcer.Decide and the approved lists
//     of Enforcer.Node, read as the HPE reads them — against the
//     specification.
//   - GenPolicy decodes an arbitrary byte string into a structurally valid
//     policy set and device model, so the FuzzBackendEquivalence target and
//     the seeded property tests explore policy space far beyond the
//     hand-written fixtures.
package difftest

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/policy/ir"
)

// Probe is one decision coordinate.
type Probe struct {
	Subject string
	Mode    policy.Mode
	Act     policy.Action
	ID      uint32
}

// unknownSubject and foreignMode are probe values deliberately outside any
// device model GenPolicy or the tests construct.
const (
	unknownSubject = "difftest-unknown-node"
	foreignMode    = policy.Mode("difftest-foreign-mode")
)

// probeActs covers both valid single-direction actions and two invalid
// action encodings (ActReadWrite and zero), which every backend must deny.
var probeActs = []policy.Action{policy.ActRead, policy.ActWrite, policy.ActReadWrite, 0}

// Spec is the reference decision: the closed-world contract stated over the
// raw rule set. It is intentionally independent of the IR — Lower and every
// backend are all being tested against this.
func Spec(set *policy.Set, opts policy.CompileOptions, p Probe) policy.Effect {
	if p.Act != policy.ActRead && p.Act != policy.ActWrite {
		return policy.Deny
	}
	found := false
	for _, s := range opts.Subjects {
		if s == p.Subject {
			found = true
			break
		}
	}
	if !found {
		return policy.Deny
	}
	found = false
	for _, m := range opts.Modes {
		if m == p.Mode {
			found = true
			break
		}
	}
	if !found {
		return policy.Deny
	}
	return set.Decide(p.Subject, p.Mode, p.Act, p.ID)
}

// probeIDs collects the decisive identifiers of a rule set: every range
// boundary and its two neighbours, plus a far out-of-universe identifier.
func probeIDs(set *policy.Set) []uint32 {
	seen := map[uint32]struct{}{}
	add := func(id uint32) { seen[id] = struct{}{} }
	for _, r := range set.Rules {
		for _, rng := range r.IDs {
			if rng.Lo > 0 {
				add(rng.Lo - 1)
			}
			add(rng.Lo)
			add(rng.Hi)
			if rng.Hi < ^uint32(0) {
				add(rng.Hi + 1)
			}
		}
	}
	add(0x7FC0DE) // far outside any generated universe
	out := make([]uint32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out
}

// Universe enumerates the full probe matrix for a policy and device model.
func Universe(set *policy.Set, opts policy.CompileOptions) []Probe {
	subjects := append(append([]string{}, opts.Subjects...), unknownSubject)
	modes := append(append([]policy.Mode{}, opts.Modes...), foreignMode)
	ids := probeIDs(set)
	out := make([]Probe, 0, len(subjects)*len(modes)*len(probeActs)*len(ids))
	for _, s := range subjects {
		for _, m := range modes {
			for _, a := range probeActs {
				for _, id := range ids {
					out = append(out, Probe{Subject: s, Mode: m, Act: a, ID: id})
				}
			}
		}
	}
	return out
}

// Check compiles the policy with every registered backend and verifies each
// probe decision against Spec, through both the Decide entry point and the
// hot path (hotPath). The first divergence is returned with its full
// coordinates; nil means all backends agree with the specification (and
// therefore with each other) on every probe.
func Check(set *policy.Set, opts policy.CompileOptions) error {
	probes := Universe(set, opts)
	for _, name := range ir.Names() {
		o := opts
		o.Backend = name
		enf, err := ir.Build(set, o)
		if err != nil {
			return fmt.Errorf("difftest: backend %s failed to compile: %w", name, err)
		}
		for _, p := range probes {
			want := Spec(set, opts, p)
			got := enf.Decide(p.Subject, p.ID, p.Act, ir.Context{Mode: p.Mode})
			if got.Effect != want {
				return fmt.Errorf("difftest: backend %s Decide(%q, %s, %v, 0x%X) = %v, spec says %v\npolicy:\n%s",
					name, p.Subject, p.Mode, p.Act, p.ID, got.Effect, want, set)
			}
			if hot := hotPath(enf.Node(p.Subject), p); hot != (want == policy.Allow) {
				return fmt.Errorf("difftest: backend %s hot path diverges at (%q, %s, %v, 0x%X): allow=%v, spec says %v\npolicy:\n%s",
					name, p.Subject, p.Mode, p.Act, p.ID, hot, want, set)
			}
		}
	}
	return nil
}

// hotPath reads a probe's decision off a subject's approved lists exactly
// as the HPE does: the mode's table, then the list of the probe's
// direction. The HPE decides only reads and writes, so any other action
// has no list and denies.
func hotPath(n *policy.NodeTable, p Probe) bool {
	mt := n.Table(p.Mode)
	switch p.Act {
	case policy.ActRead:
		return mt.Reads.Contains(p.ID)
	case policy.ActWrite:
		return mt.Writes.Contains(p.ID)
	}
	return false
}

// CheckCompileError verifies the uniform-failure contract: if any backend
// rejects the policy at compile time, every backend must reject it (the
// table-expansion cap is enforced during lowering precisely so a policy is
// either valid for all backends or for none).
func CheckCompileError(set *policy.Set, opts policy.CompileOptions) (bool, error) {
	failed, succeeded := []string{}, []string{}
	for _, name := range ir.Names() {
		o := opts
		o.Backend = name
		if _, err := ir.Build(set, o); err != nil {
			failed = append(failed, name)
		} else {
			succeeded = append(succeeded, name)
		}
	}
	if len(failed) > 0 && len(succeeded) > 0 {
		return true, fmt.Errorf("difftest: compile split: %v rejected, %v accepted\npolicy:\n%s", failed, succeeded, set)
	}
	return len(failed) > 0, nil
}

// Device pools for GenPolicy: four device subjects, one subject the device
// does not have, three device modes, one foreign mode. Small pools keep
// collisions (several rules hitting one subject) frequent, which is where
// deny-overrides bugs live.
var (
	genSubjects = []string{"ecu", "brakes", "telematics", "dash"}
	genModes    = []policy.Mode{"normal", "remote-diag", "failsafe"}
)

// GenPolicy decodes an arbitrary byte string into a valid policy set over a
// fixed device model. Every 4-byte group becomes one rule; the decoding is
// total (any input yields a valid set, possibly with zero rules) so fuzzing
// never wastes executions on rejected inputs. Rule count is capped at 16.
func GenPolicy(data []byte) (*policy.Set, policy.CompileOptions) {
	set := &policy.Set{Name: "fuzz", Version: 1}
	for i := 0; i+4 <= len(data) && len(set.Rules) < 16; i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		r := policy.Rule{Name: fmt.Sprintf("r%d", len(set.Rules))}
		switch sel := b0 % 6; sel {
		case 4:
			r.Subject = "ghost" // not in the device model: the rule is unreachable
		case 5:
			r.Subject = policy.SubjectAll
		default:
			r.Subject = genSubjects[sel]
		}
		if b1&1 == 0 {
			r.Effect = policy.Allow
		} else {
			r.Effect = policy.Deny
		}
		r.Action = []policy.Action{policy.ActRead, policy.ActWrite, policy.ActReadWrite}[(b1>>1)%3]
		// Mode bits 3..5 pick device modes; bit 6 adds a foreign mode. All
		// bits clear leaves the universal (empty) mode set.
		for mi := range genModes {
			if b1&(1<<(3+mi)) != 0 {
				r.Modes = r.Modes.Add(genModes[mi])
			}
		}
		if b1&(1<<6) != 0 {
			r.Modes = r.Modes.Add("track-day")
		}
		lo := uint32(b2)
		span := uint32(b3 & 0x1F)
		if b3&0x80 != 0 {
			// Extended-identifier rule: exercises the closure backend's
			// spill list and the table backend's bitmap→hash fallback.
			lo += 0x7F8
		}
		r.IDs = policy.Span(lo, lo+span)
		if b3&0x40 != 0 {
			// Second disjoint range on the same rule.
			r.IDs = append(r.IDs, policy.IDRange{Lo: lo + span + 2, Hi: lo + span + 4})
		}
		set.Rules = append(set.Rules, r)
	}
	return set, policy.CompileOptions{
		Subjects: append([]string(nil), genSubjects...),
		Modes:    append([]policy.Mode(nil), genModes...),
	}
}
