package ir

// closureBackend is the fully pre-compiled backend: it memoises the IR's
// reference evaluator into direct-mapped jump tables at compile time, one
// per (subject, mode, direction), specialised for the vehicle model. Each
// table is an approved list the HPE queries like any other: a bit test on
// a flat [32]uint64, with no rule walk. This is the closest software
// analogue of burning the policy into the CAM of a real policy engine.

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/policy"
)

type closureBackend struct{}

func (closureBackend) Compile(p *Policy) (Enforcer, error) {
	ids, err := p.Universe.Enumerate(policy.TableLimit)
	if err != nil {
		return nil, err
	}
	return &closureEnforcer{compileNodes("closure", p, func(si, mi int, act policy.Action) policy.IDLookup {
		s := &closureSlot{}
		for _, id := range ids { // ascending, so the spill list is sorted
			if p.evalIndexed(si, id, act, mi) == policy.Allow {
				s.set(id)
			}
		}
		return s
	})}, nil
}

// closureEnforcer adds the jump-table dump to the IR enforcer.
type closureEnforcer struct{ *irEnforcer }

// closureSlot is one direction's pre-computed decision table: a 2048-bit
// direct map over the standard 11-bit identifier space plus a sorted spill
// list for extended identifiers.
type closureSlot struct {
	bits [(policy.MaxStandardID + 1) / 64]uint64
	ext  []uint32
}

func (s *closureSlot) set(id uint32) {
	if id <= policy.MaxStandardID {
		s.bits[id>>6] |= 1 << (id & 63)
		return
	}
	s.ext = append(s.ext, id)
}

// Contains implements policy.IDLookup.
func (s *closureSlot) Contains(id uint32) bool {
	if id <= policy.MaxStandardID {
		return s.bits[id>>6]&(1<<(id&63)) != 0
	}
	lo, hi := 0, len(s.ext)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ext[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.ext) && s.ext[lo] == id
}

// Len implements policy.IDLookup.
func (s *closureSlot) Len() int {
	n := len(s.ext)
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// IDs implements policy.IDLookup: the direct-mapped identifiers, then the
// (larger, sorted) extended ones.
func (s *closureSlot) IDs() []uint32 {
	out := make([]uint32, 0, s.Len())
	for id := uint32(0); id <= policy.MaxStandardID; id++ {
		if s.bits[id>>6]&(1<<(id&63)) != 0 {
			out = append(out, id)
		}
	}
	return append(out, s.ext...)
}

// Dump renders the compiled jump tables as deterministic text: every
// (subject, mode) pair's approved reading and writing ranges, in interned
// order. This is the policyc -emit jumptable export.
func (e *closureEnforcer) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jumptable policy %q version %d\n", e.p.Name, e.p.Version)
	fmt.Fprintf(&b, "modes: %d  subjects: %d  rules: %d (dropped %d)\n",
		len(e.p.Modes), len(e.p.Subjects), len(e.p.Rules), e.p.Dropped)
	for si, subj := range e.p.Subjects {
		fmt.Fprintf(&b, "subject %q\n", subj)
		for _, mode := range e.p.Modes {
			mt := e.nodes[si].PerMode[mode]
			fmt.Fprintf(&b, "  mode %s\n", mode)
			fmt.Fprintf(&b, "    R %s\n", ranges(mt.Reads.IDs()))
			fmt.Fprintf(&b, "    W %s\n", ranges(mt.Writes.IDs()))
		}
	}
	return b.String()
}

// ranges merges ascending identifiers into the normalised range set the
// jump-table dump prints.
func ranges(ids []uint32) policy.IDSet {
	var out policy.IDSet
	for _, id := range ids {
		if n := len(out); n > 0 && out[n-1].Hi+1 == id {
			out[n-1].Hi = id
			continue
		}
		out = append(out, policy.IDRange{Lo: id, Hi: id})
	}
	return out
}
