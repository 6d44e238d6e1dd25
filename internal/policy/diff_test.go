package policy

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestDiffSetsGrantAndRevoke(t *testing.T) {
	oldSet := MustParse(`policy "p" version 1 {
  allow read 0x100 at ecu
  allow write 0x200 at sensors in Normal
}`)
	newSet := MustParse(`policy "p" version 2 {
  allow read 0x100, 0x101 at ecu
}`)
	d, err := DiffSets(oldSet, newSet)
	if err != nil {
		t.Fatal(err)
	}
	// The ecu grant holds in Normal and in every mode neither set names.
	wantGranted := []Access{{"ecu", "Normal", ActRead, 0x101}, {"ecu", "*", ActRead, 0x101}}
	if !slices.Equal(d.Granted, wantGranted) {
		t.Errorf("Granted = %v, want %v", d.Granted, wantGranted)
	}
	if len(d.Revoked) != 1 || d.Revoked[0] != (Access{"sensors", "Normal", ActWrite, 0x200}) {
		t.Errorf("Revoked = %v", d.Revoked)
	}
	out := d.String()
	for _, line := range []string{"+ ecu Normal R 0x101", "+ ecu * R 0x101", "- sensors Normal W 0x200"} {
		if !strings.Contains(out, line) {
			t.Errorf("rendering %q lacks %q", out, line)
		}
	}
}

func TestDiffSetsSemanticNotTextual(t *testing.T) {
	// Two textually different but semantically identical sets diff empty.
	a := MustParse(`policy "p" version 1 {
  allow read 0x100..0x102 at ecu
}`)
	b := MustParse(`policy "p" version 2 {
  allow read 0x100 at ecu
  allow read 0x101, 0x102 at ecu
}`)
	d, err := DiffSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Errorf("semantically equal sets diff non-empty: %s", d)
	}
	if !strings.Contains(d.String(), "no semantic changes") {
		t.Errorf("empty diff rendering = %q", d.String())
	}
}

func TestDiffSetsDenyOverridesShowAsRevocation(t *testing.T) {
	a := MustParse(`policy "p" version 1 {
  allow readwrite 0x10 at n
}`)
	b := MustParse(`policy "p" version 2 {
  allow readwrite 0x10 at n
  deny write 0x10 at n
}`)
	d, err := DiffSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Revoked) != 1 || d.Revoked[0].Action != ActWrite {
		t.Errorf("Revoked = %v", d.Revoked)
	}
	if len(d.Granted) != 0 {
		t.Errorf("Granted = %v", d.Granted)
	}
}

func TestDiffSetsModeScoping(t *testing.T) {
	a := MustParse(`policy "p" version 1 {
  allow read 0x10 at n
}`)
	b := MustParse(`policy "p" version 2 {
  allow read 0x10 at n in Diag
}`)
	// Narrowing an all-modes rule to one mode revokes it in every other
	// mode, which the mode probe stands for.
	d, err := DiffSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Revoked) != 1 || d.Revoked[0] != (Access{"n", "*", ActRead, 0x10}) {
		t.Errorf("Revoked = %v", d.Revoked)
	}
	if len(d.Granted) != 0 {
		t.Errorf("Granted = %v", d.Granted)
	}
}

func TestDiffSetsLimit(t *testing.T) {
	over := fmt.Sprintf("allow read 0..%d at n", TableLimit)
	a := MustParse(`policy "p" version 1 { ` + over + ` }`)
	b := MustParse(`policy "p" version 2 { ` + over + ` }`)
	if _, err := DiffSets(a, b); err == nil {
		t.Error("limit not enforced")
	}
}

// TestDiffSetsUnnamedSubjectsAndModes: changes that only wildcard-subject
// or all-mode rules make show under the probes, where a diff over the named
// subjects and modes alone finds nothing.
func TestDiffSetsUnnamedSubjectsAndModes(t *testing.T) {
	cases := []struct {
		name, old, new string
		want           string
	}{
		{"wildcard subject", "allow read 0x10 at *", "allow read 0x11 at *",
			"- * * R 0x010\n+ * * R 0x011\n"},
		{"narrowed to a mode", "allow read 0x10 at ecu", "allow read 0x10 at ecu in Diag",
			"- ecu * R 0x010\n"},
	}
	for _, c := range cases {
		a := MustParse(`policy "p" version 1 { ` + c.old + ` }`)
		b := MustParse(`policy "p" version 2 { ` + c.new + ` }`)
		d, err := DiffSets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.String(); got != c.want {
			t.Errorf("%s: diff = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestDiffSetsModeProbeAvoidsNamedModes: a rule naming the mode "*" (the
// JSON form allows any mode name) does not capture the mode probe.
func TestDiffSetsModeProbeAvoidsNamedModes(t *testing.T) {
	a := &Set{Name: "p", Version: 1, Rules: []Rule{
		{Subject: "n", Effect: Allow, Action: ActRead, IDs: SingleID(0x10), Modes: NewModeSet("*")},
	}}
	b := &Set{Name: "p", Version: 2, Rules: []Rule{
		{Subject: "n", Effect: Allow, Action: ActRead, IDs: SingleID(0x10)},
	}}
	d, err := DiffSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{{"n", "**", ActRead, 0x10}}
	if !slices.Equal(d.Granted, want) || len(d.Revoked) != 0 {
		t.Errorf("diff = %+v, want granted %v", d, want)
	}
}

func TestDiffSetsValidation(t *testing.T) {
	bad := &Set{Name: "", Version: 1}
	good := MustParse(`policy "p" version 1 { allow read 1 at n }`)
	if _, err := DiffSets(bad, good); err == nil {
		t.Error("invalid old set accepted")
	}
	if _, err := DiffSets(good, bad); err == nil {
		t.Error("invalid new set accepted")
	}
}
