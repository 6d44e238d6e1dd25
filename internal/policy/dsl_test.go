package policy

import (
	"errors"
	"strings"
	"testing"
)

const sampleDSL = `
# Connected-car policy derived from Table I.
policy "table-i" version 3 {
  default deny

  allow read 0x100..0x10F at EV-ECU as "sensor block"
  deny  read 0x105 at EV-ECU
  allow write 0x200, 0x210 at DoorLocks in Normal
  allow readwrite 0x300 at Telematics in Normal, FailSafe as "tracking"

  mode RemoteDiag {
    allow write 0x7DF at Diagnostics
    allow read 0x7DF at *
  }
}
`

func TestParseSample(t *testing.T) {
	s, err := Parse(sampleDSL)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "table-i" || s.Version != 3 {
		t.Errorf("header = %s/%d", s.Name, s.Version)
	}
	if len(s.Rules) != 6 {
		t.Fatalf("parsed %d rules, want 6", len(s.Rules))
	}
	r0 := s.Rules[0]
	if r0.Subject != "EV-ECU" || r0.Effect != Allow || r0.Action != ActRead ||
		r0.Name != "sensor block" || !r0.IDs.Contains(0x10A) || r0.IDs.Contains(0x110) {
		t.Errorf("rule 0 parsed wrong: %+v", r0)
	}
	r2 := s.Rules[2]
	if !r2.Modes.Contains("Normal") || r2.Modes.Contains("FailSafe") {
		t.Errorf("rule 2 modes wrong: %v", r2.Modes)
	}
	if !r2.IDs.Contains(0x200) || !r2.IDs.Contains(0x210) || r2.IDs.Contains(0x201) {
		t.Errorf("rule 2 ids wrong: %v", r2.IDs)
	}
	r3 := s.Rules[3]
	if r3.Action != ActReadWrite || r3.Name != "tracking" {
		t.Errorf("rule 3 wrong: %+v", r3)
	}
	// Mode block distributes its modes to contained rules.
	r4 := s.Rules[4]
	if !r4.Modes.Contains("RemoteDiag") || len(r4.Modes) != 1 {
		t.Errorf("mode block rule modes = %v", r4.Modes)
	}
	r5 := s.Rules[5]
	if r5.Subject != SubjectAll {
		t.Errorf("wildcard subject parsed as %q", r5.Subject)
	}
}

func TestParseDecisionSemantics(t *testing.T) {
	s := MustParse(sampleDSL)
	tests := []struct {
		subject string
		mode    Mode
		act     Action
		id      uint32
		want    Effect
	}{
		{"EV-ECU", "Normal", ActRead, 0x100, Allow},
		{"EV-ECU", "Normal", ActRead, 0x105, Deny}, // explicit deny
		{"DoorLocks", "Normal", ActWrite, 0x210, Allow},
		{"DoorLocks", "FailSafe", ActWrite, 0x210, Deny}, // wrong mode
		{"Telematics", "FailSafe", ActRead, 0x300, Allow},
		{"Telematics", "FailSafe", ActWrite, 0x300, Allow},
		{"Diagnostics", "RemoteDiag", ActWrite, 0x7DF, Allow},
		{"Diagnostics", "Normal", ActWrite, 0x7DF, Deny},
		{"Anyone", "RemoteDiag", ActRead, 0x7DF, Allow},
	}
	for _, tt := range tests {
		if got := s.Decide(tt.subject, tt.mode, tt.act, tt.id); got != tt.want {
			t.Errorf("Decide(%s,%s,%v,0x%X) = %v, want %v",
				tt.subject, tt.mode, tt.act, tt.id, got, tt.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
// line comment
policy "p" version 1 { # trailing comment
  allow read 1 at x // another
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 1 {
		t.Errorf("rules = %d", len(s.Rules))
	}
}

func TestParseNumberFormats(t *testing.T) {
	s := MustParse(`policy "p" version 1 {
  allow read 0x10, 16, 0X20 at x
}`)
	ids := s.Rules[0].IDs
	if !ids.Contains(0x10) || !ids.Contains(16) || !ids.Contains(0x20) {
		t.Errorf("numeric formats parsed wrong: %v", ids)
	}
	// 0x10 == 16: normalisation merges them.
	norm, _ := ids.Normalize()
	if len(norm) != 2 {
		t.Errorf("expected 2 normalised ranges, got %v", norm)
	}
}

func TestParseQuotedSubject(t *testing.T) {
	s := MustParse(`policy "p" version 1 {
  allow read 1 at "node with spaces"
}`)
	if s.Rules[0].Subject != "node with spaces" {
		t.Errorf("quoted subject = %q", s.Rules[0].Subject)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := MustParse(`policy "a\"b\\c" version 1 {
  allow read 1 at x
}`)
	if s.Name != `a"b\c` {
		t.Errorf("escaped name = %q", s.Name)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		frag string // expected error substring
	}{
		{"missing policy keyword", `version 1 {}`, "policy"},
		{"missing version", `policy "p" {}`, "version"},
		{"unterminated block", `policy "p" version 1 { allow read 1 at x`, "missing '}'"},
		{"default allow", `policy "p" version 1 { default allow }`, "closed-world"},
		{"bad effect", `policy "p" version 1 { permit read 1 at x }`, "allow"},
		{"bad action", `policy "p" version 1 { allow exec 1 at x }`, "read"},
		{"missing at", `policy "p" version 1 { allow read 1 x }`, "at"},
		{"trailing garbage", `policy "p" version 1 {} extra`, "trailing"},
		{"re-declare modes", `policy "p" version 1 { mode A { allow read 1 at x in B } }`, "re-declare"},
		{"unterminated string", `policy "p`, "unterminated"},
		{"inverted range", `policy "p" version 1 { allow read 5..2 at x }`, "inverted"},
		{"stray dot", `policy "p" version 1 { allow read 1. at x }`, "'.'"},
		{"unknown escape", `policy "p\q" version 1 {}`, "escape"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatal("parse succeeded")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q does not mention %q", err, tt.frag)
			}
		})
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	src := "policy \"p\" version 1 {\n  allow read 1 at x\n  bogus read 1 at x\n}"
	_, err := Parse(src)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestParseEmptyPolicy(t *testing.T) {
	s, err := Parse(`policy "empty" version 7 { default deny }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 0 {
		t.Errorf("rules = %d", len(s.Rules))
	}
	// Everything denied.
	if s.Decide("x", "m", ActRead, 1) != Deny {
		t.Error("empty policy must deny")
	}
}

// MustParse is Parse for static policies; it panics on error.
func MustParse(src string) *Set {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}
