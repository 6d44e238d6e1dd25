package policy

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// This file implements policy diffing, the audit companion of the update
// mechanism: before distributing a new version the OEM (and after receiving
// it, an auditor) can see exactly which accesses a bundle grants or
// revokes. The diff is computed over *semantics* (per subject, mode,
// direction and identifier), not rule text, so rewriting rules without
// changing behaviour diffs as empty.

// Access identifies one grantable capability.
type Access struct {
	// Subject is the node holding the capability; in a Diff, SubjectAll
	// stands for every subject neither set names.
	Subject string
	// Mode is the operating mode it applies in; in a Diff, "*" stands for
	// every mode neither set names.
	Mode Mode
	// Action is the direction (ActRead or ActWrite).
	Action Action
	// ID is the message identifier.
	ID uint32
}

// String renders "subject mode R 0xID".
func (a Access) String() string {
	return fmt.Sprintf("%s %s %s 0x%03X", a.Subject, a.Mode, a.Action, a.ID)
}

// Diff is the semantic difference between two policy sets.
type Diff struct {
	// Granted lists accesses allowed by the new set but not the old.
	Granted []Access
	// Revoked lists accesses allowed by the old set but not the new.
	Revoked []Access
}

// Empty reports whether the two sets are semantically identical over the
// compared universe.
func (d Diff) Empty() bool { return len(d.Granted) == 0 && len(d.Revoked) == 0 }

// String renders the diff in +/- notation, sorted.
func (d Diff) String() string {
	if d.Empty() {
		return "(no semantic changes)\n"
	}
	var b strings.Builder
	for _, a := range d.Revoked {
		fmt.Fprintf(&b, "- %s\n", a)
	}
	for _, a := range d.Granted {
		fmt.Fprintf(&b, "+ %s\n", a)
	}
	return b.String()
}

// DiffSets computes the semantic difference between old and new: every
// (subject, mode, action, identifier) cell whose decision differs, over
// every identifier either set mentions. The subjects and modes compared are
// those either set names, sorted, then one probe of each standing for all
// the subjects and modes neither set names, which every rule treats alike:
// the subject probe is SubjectAll, which only wildcard rules match, and the
// mode probe is "*" (lengthened if a rule names that mode), which only
// all-mode rules match.
func DiffSets(oldSet, newSet *Set) (Diff, error) {
	if err := oldSet.Validate(); err != nil {
		return Diff{}, fmt.Errorf("policy: diff old set: %w", err)
	}
	if err := newSet.Validate(); err != nil {
		return Diff{}, fmt.Errorf("policy: diff new set: %w", err)
	}
	subjects := append(sortedUnion(oldSet.Subjects(), newSet.Subjects()), SubjectAll)
	modes := sortedUnion(oldSet.Modes(), newSet.Modes())
	probe := Mode("*")
	for slices.Contains(modes, probe) {
		probe += "*"
	}
	modes = append(modes, probe)
	var universe IDSet
	for _, r := range oldSet.Rules {
		universe = append(universe, r.IDs...)
	}
	for _, r := range newSet.Rules {
		universe = append(universe, r.IDs...)
	}
	ids, err := universe.Enumerate(TableLimit)
	if err != nil {
		return Diff{}, err
	}

	var d Diff
	for _, subj := range subjects {
		for _, mode := range modes {
			for _, act := range []Action{ActRead, ActWrite} {
				for _, id := range ids {
					was := oldSet.Decide(subj, mode, act, id) == Allow
					is := newSet.Decide(subj, mode, act, id) == Allow
					switch {
					case is && !was:
						d.Granted = append(d.Granted, Access{subj, mode, act, id})
					case was && !is:
						d.Revoked = append(d.Revoked, Access{subj, mode, act, id})
					}
				}
			}
		}
	}
	return d, nil
}

// sortedUnion returns the sorted, duplicate-free union of a and b.
func sortedUnion[T cmp.Ordered](a, b []T) []T {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}
