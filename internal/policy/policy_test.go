package policy

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestActionStringAndParse(t *testing.T) {
	tests := []struct {
		act  Action
		want string
	}{
		{ActRead, "R"},
		{ActWrite, "W"},
		{ActReadWrite, "RW"},
	}
	for _, tt := range tests {
		if got := tt.act.String(); got != tt.want {
			t.Errorf("String(%v) = %q", tt.act, got)
		}
	}
	if !ActReadWrite.Has(ActRead) || !ActReadWrite.Has(ActWrite) {
		t.Error("ActReadWrite must include both directions")
	}
	if ActRead.Has(ActWrite) {
		t.Error("ActRead must not include write")
	}
}

func TestModeSet(t *testing.T) {
	empty := ModeSet{}
	if !empty.Contains("anything") {
		t.Error("empty mode set must apply in all modes")
	}
	s := NewModeSet("Normal", "FailSafe")
	if !s.Contains("Normal") || s.Contains("RemoteDiag") {
		t.Error("Contains wrong")
	}
	if got := s.String(); got != "FailSafe,Normal" {
		t.Errorf("String = %q (sorted)", got)
	}
	c := s.Clone()
	c.Add("RemoteDiag")
	if s.Contains("RemoteDiag") {
		t.Error("Clone shares storage")
	}
	var nilSet ModeSet
	if nilSet.Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
	got := nilSet.Add("X")
	if !got.Contains("X") {
		t.Error("Add on nil set must allocate")
	}
}

func TestIDSetNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   IDSet
		want string
	}{
		{"merge overlap", IDSet{{1, 5}, {3, 8}}, "0x1..0x8"},
		{"merge adjacent", IDSet{{1, 3}, {4, 6}}, "0x1..0x6"},
		{"keep gap", IDSet{{1, 2}, {5, 6}}, "0x1..0x2,0x5..0x6"},
		{"unsorted input", IDSet{{10, 12}, {1, 2}}, "0x1..0x2,0xA..0xC"},
		{"single", SingleID(7), "0x7"},
		{"contained", IDSet{{1, 10}, {3, 4}}, "0x1..0xA"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n, err := tt.in.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			if got := n.String(); got != tt.want {
				t.Errorf("Normalize = %q, want %q", got, tt.want)
			}
		})
	}
	if _, err := (IDSet{{5, 1}}).Normalize(); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestIDSetNormalizePreservesMembershipProperty(t *testing.T) {
	prop := func(ranges [][2]uint16, probe uint16) bool {
		var s IDSet
		for _, r := range ranges {
			lo, hi := uint32(r[0]), uint32(r[1])
			if lo > hi {
				lo, hi = hi, lo
			}
			s = append(s, IDRange{Lo: lo, Hi: hi})
		}
		n, err := s.Normalize()
		if err != nil {
			return false
		}
		return s.Contains(uint32(probe)) == n.Contains(uint32(probe))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIDSetEnumerate(t *testing.T) {
	s := IDSet{{1, 3}, {7, 7}}
	ids, err := s.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 3, 7}
	if len(ids) != len(want) {
		t.Fatalf("Enumerate = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Enumerate = %v, want %v", ids, want)
		}
	}
	if _, err := (Span(0, 100)).Enumerate(10); err == nil {
		t.Error("Enumerate did not enforce its cap")
	}
}

func TestRuleValidate(t *testing.T) {
	valid := Rule{Subject: "a", Effect: Allow, Action: ActRead, IDs: SingleID(1)}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		rule Rule
		want error
	}{
		{"no subject", Rule{Effect: Allow, Action: ActRead, IDs: SingleID(1)}, ErrNoSubject},
		{"bad effect", Rule{Subject: "a", Action: ActRead, IDs: SingleID(1)}, ErrBadEffect},
		{"bad action", Rule{Subject: "a", Effect: Allow, IDs: SingleID(1)}, ErrBadAction},
		{"no ids", Rule{Subject: "a", Effect: Allow, Action: ActRead}, ErrNoIDs},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := tt.rule
			if err := r.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("Validate = %v, want %v", err, tt.want)
			}
		})
	}
}

func testSet() *Set {
	return &Set{
		Name:    "test",
		Version: 1,
		Rules: []Rule{
			{Name: "r1", Subject: "ecu", Effect: Allow, Action: ActRead, IDs: Span(0x100, 0x10F)},
			{Name: "r2", Subject: "ecu", Effect: Deny, Action: ActRead, IDs: SingleID(0x105)},
			{Name: "r3", Subject: "*", Effect: Allow, Action: ActWrite, IDs: SingleID(0x7DF),
				Modes: NewModeSet("Diag")},
			{Name: "r4", Subject: "sensors", Effect: Allow, Action: ActReadWrite, IDs: SingleID(0x200)},
		},
	}
}

func TestSetDecide(t *testing.T) {
	s := testSet()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		subject string
		mode    Mode
		act     Action
		id      uint32
		want    Effect
	}{
		{"allowed read", "ecu", "Normal", ActRead, 0x100, Allow},
		{"deny overrides allow", "ecu", "Normal", ActRead, 0x105, Deny},
		{"default deny unknown id", "ecu", "Normal", ActRead, 0x500, Deny},
		{"default deny wrong direction", "ecu", "Normal", ActWrite, 0x100, Deny},
		{"default deny unknown subject", "ghost", "Normal", ActRead, 0x100, Deny},
		{"wildcard in right mode", "anyone", "Diag", ActWrite, 0x7DF, Allow},
		{"wildcard in wrong mode", "anyone", "Normal", ActWrite, 0x7DF, Deny},
		{"readwrite covers read", "sensors", "Normal", ActRead, 0x200, Allow},
		{"readwrite covers write", "sensors", "Normal", ActWrite, 0x200, Allow},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Decide(tt.subject, tt.mode, tt.act, tt.id); got != tt.want {
				t.Errorf("Decide = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetDecideOrderIndependence(t *testing.T) {
	s := testSet()
	// Reverse the rules: deny-overrides must make order irrelevant.
	r := testSet()
	for i, j := 0, len(r.Rules)-1; i < j; i, j = i+1, j-1 {
		r.Rules[i], r.Rules[j] = r.Rules[j], r.Rules[i]
	}
	for id := uint32(0x100); id <= 0x110; id++ {
		for _, act := range []Action{ActRead, ActWrite} {
			if s.Decide("ecu", "Normal", act, id) != r.Decide("ecu", "Normal", act, id) {
				t.Fatalf("rule order changed semantics at id 0x%X", id)
			}
		}
	}
}

func TestSetSubjectsAndModes(t *testing.T) {
	s := testSet()
	subs := s.Subjects()
	if len(subs) != 2 || subs[0] != "ecu" || subs[1] != "sensors" {
		t.Errorf("Subjects = %v", subs)
	}
	modes := s.Modes()
	if len(modes) != 1 || modes[0] != "Diag" {
		t.Errorf("Modes = %v", modes)
	}
}

func TestSetStringParseRoundTrip(t *testing.T) {
	s := testSet()
	src := s.String()
	parsed, err := Parse(src)
	if err != nil {
		t.Fatalf("parsing rendered set: %v\n%s", err, src)
	}
	if parsed.Name != s.Name || parsed.Version != s.Version {
		t.Errorf("header mismatch: %s/%d", parsed.Name, parsed.Version)
	}
	if len(parsed.Rules) != len(s.Rules) {
		t.Fatalf("rule count %d, want %d", len(parsed.Rules), len(s.Rules))
	}
	// Semantics must match on a probe grid.
	for _, subj := range []string{"ecu", "sensors", "other"} {
		for _, mode := range []Mode{"Normal", "Diag"} {
			for id := uint32(0x0F0); id <= 0x210; id += 3 {
				for _, act := range []Action{ActRead, ActWrite} {
					if s.Decide(subj, mode, act, id) != parsed.Decide(subj, mode, act, id) {
						t.Fatalf("round-trip semantics differ at %s/%s/%v/0x%X", subj, mode, act, id)
					}
				}
			}
		}
	}
}
