package difftest

import (
	"slices"
	"testing"

	"repro/internal/policy"
)

// FuzzBackendEquivalence is the coverage-guided arm of the differential
// harness: any byte string decodes (totally) into a policy set, and every
// registered backend must produce byte-identical decisions — against the
// specification and therefore against each other — over the full probe
// matrix. The uniform-failure contract is checked first: a policy rejected
// by one backend must be rejected by all.
//
// Seed corpus lives under testdata/fuzz/FuzzBackendEquivalence; CI runs a
// short smoke (-fuzztime 10s) on every push.
func FuzzBackendEquivalence(f *testing.F) {
	// Empty policy: pure default-deny.
	f.Add([]byte(""))
	// Wildcard allow-readwrite 0x00..0x1F, then ecu deny-read 0x10 in normal
	// mode: deny-overrides inside an allowed range.
	f.Add([]byte("\x05\x04\x00\x1f\x00\x09\x10\x00"))
	// Extended-identifier rule with a second disjoint range: closure spill
	// list and bitmap fallback paths.
	f.Add([]byte("\x01\x00\x08\xc4"))
	// Unreachable rules: unknown subject, then foreign-mode-only wildcard.
	f.Add([]byte("\x04\x00\x20\x05\x05\x43\x20\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, opts := GenPolicy(data)
		if err := set.Validate(); err != nil {
			t.Fatalf("GenPolicy produced invalid set: %v\npolicy:\n%s", err, set)
		}
		failed, err := CheckCompileError(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if failed {
			return
		}
		if err := Check(set, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDiffSets holds policy.DiffSets to the compiled tables. The input
// decodes into two policy sets: its first byte counts the old set's rules
// (mod 17), GenPolicy decodes that many 4-byte groups into the old set and
// the rest into the new one. Both compile over every subject and mode
// either set names plus one fresh subject and one fresh mode, and the diff
// must list exactly the (subject, mode, action, identifier) cells where the
// two tables disagree, in its order, with the fresh subject and mode
// standing for the diff's probes (both "*").
//
// CI runs a short smoke (-fuzztime 10s) on every push.
func FuzzDiffSets(f *testing.F) {
	// allow read 0x10 at * becomes allow read 0x11 at *: a change under a
	// wildcard subject.
	f.Add([]byte("\x01\x05\x00\x10\x00\x05\x00\x11\x00"))
	// allow read 0x10 at ecu becomes ... in remote-diag: an all-mode rule
	// narrowed to one mode.
	f.Add([]byte("\x01\x00\x00\x10\x00\x00\x10\x10\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var k int
		if len(data) > 0 {
			k = min(4*int(data[0]%17), len(data)-1)
			data = data[1:]
		}
		oldSet, _ := GenPolicy(data[:k])
		newSet, _ := GenPolicy(data[k:])
		d, err := policy.DiffSets(oldSet, newSet)
		if err != nil {
			t.Fatal(err)
		}

		subjects := slices.Concat(oldSet.Subjects(), newSet.Subjects())
		slices.Sort(subjects)
		subjects = append(slices.Compact(subjects), unknownSubject)
		modes := slices.Concat(oldSet.Modes(), newSet.Modes())
		slices.Sort(modes)
		modes = append(slices.Compact(modes), foreignMode)
		opts := policy.CompileOptions{Subjects: subjects, Modes: modes}
		oldC, err := policy.Compile(oldSet, opts)
		if err != nil {
			t.Fatal(err)
		}
		newC, err := policy.Compile(newSet, opts)
		if err != nil {
			t.Fatal(err)
		}
		var maxID uint32
		for _, r := range slices.Concat(oldSet.Rules, newSet.Rules) {
			for _, rng := range r.IDs {
				maxID = max(maxID, rng.Hi)
			}
		}

		var want policy.Diff
		for _, subj := range subjects {
			as := subj
			if subj == unknownSubject {
				as = policy.SubjectAll
			}
			for _, mode := range modes {
				am := mode
				if mode == foreignMode {
					am = "*"
				}
				for _, act := range []policy.Action{policy.ActRead, policy.ActWrite} {
					for id := uint32(0); id <= maxID+1; id++ {
						p := Probe{Subject: subj, Mode: mode, Act: act, ID: id}
						was, is := hotPath(oldC.Node(subj), p), hotPath(newC.Node(subj), p)
						a := policy.Access{Subject: as, Mode: am, Action: act, ID: id}
						switch {
						case is && !was:
							want.Granted = append(want.Granted, a)
						case was && !is:
							want.Revoked = append(want.Revoked, a)
						}
					}
				}
			}
		}
		if !slices.Equal(d.Granted, want.Granted) || !slices.Equal(d.Revoked, want.Revoked) {
			t.Fatalf("DiffSets disagrees with the compiled tables\n--- diff\n%s--- tables\n%s--- old\n%s--- new\n%s",
				d, want, oldSet, newSet)
		}
	})
}
