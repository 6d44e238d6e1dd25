package stride

import (
	"testing"
	"testing/quick"
)

func TestSetStringCanonicalOrder(t *testing.T) {
	tests := []struct {
		set  Set
		want string
	}{
		{of(), "-"},
		{of(Spoofing), "S"},
		{of(ElevationOfPrivilege, Spoofing), "SE"},
		{of(DenialOfService, Tampering, Spoofing), "STD"},
		{of(Spoofing, Tampering, InformationDisclosure, DenialOfService, ElevationOfPrivilege), "STIDE"},
		{of(Tampering, InformationDisclosure, ElevationOfPrivilege), "TIE"},
		{of(Tampering, DenialOfService, ElevationOfPrivilege), "TDE"},
		{of(Spoofing, Tampering, Repudiation), "STR"},
		{of(Tampering, ElevationOfPrivilege), "TE"},
		{of(Spoofing, Tampering, Repudiation, InformationDisclosure, DenialOfService, ElevationOfPrivilege), "STRIDE"},
	}
	for _, tt := range tests {
		if got := tt.set.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"S", "STD", "STIDE", "TIE", "TDE", "STR", "TE", "SD", "STE", "STRIDE", "-"} {
		set, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := set.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseCaseInsensitiveAndDuplicates(t *testing.T) {
	a := MustParse("std")
	b := MustParse("SSTTDD")
	c := MustParse("STD")
	if a != c || b != c {
		t.Errorf("case/duplicate folding failed: %v %v %v", a, b, c)
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	if _, err := Parse("SXD"); err == nil {
		t.Error("Parse accepted unknown letter")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("Z")
}

func TestSetOperations(t *testing.T) {
	s := of(Spoofing, Tampering)
	if !s.Has(Spoofing) || !s.Has(Tampering) || s.Has(Repudiation) {
		t.Error("Has is wrong")
	}
	s = s.Add(DenialOfService)
	if !s.Has(DenialOfService) {
		t.Error("Add failed")
	}
}

func TestCategoryLettersUnique(t *testing.T) {
	seen := map[byte]bool{}
	for _, c := range All {
		l := c.Letter()
		if seen[l] {
			t.Fatalf("duplicate letter %c", l)
		}
		seen[l] = true
	}
}

// TestClassifyEffectsRoundTrip: every category set is the classification of
// the effects it names.
func TestClassifyEffectsRoundTrip(t *testing.T) {
	prop := func(raw uint8) bool {
		s := Set(raw & 0x3F)
		return Classify(Effects{
			ForgesIdentity:     s.Has(Spoofing),
			ModifiesData:       s.Has(Tampering),
			DeniesAction:       s.Has(Repudiation),
			DisclosesInfo:      s.Has(InformationDisclosure),
			DisruptsService:    s.Has(DenialOfService),
			EscalatesPrivilege: s.Has(ElevationOfPrivilege),
		}) == s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClassifyIndividualEffects(t *testing.T) {
	tests := []struct {
		effects Effects
		want    string
	}{
		{Effects{ForgesIdentity: true}, "S"},
		{Effects{ModifiesData: true}, "T"},
		{Effects{DeniesAction: true}, "R"},
		{Effects{DisclosesInfo: true}, "I"},
		{Effects{DisruptsService: true}, "D"},
		{Effects{EscalatesPrivilege: true}, "E"},
		{Effects{}, "-"},
	}
	for _, tt := range tests {
		if got := Classify(tt.effects).String(); got != tt.want {
			t.Errorf("Classify(%+v) = %q, want %q", tt.effects, got, tt.want)
		}
	}
}

func TestParseStringRoundTripProperty(t *testing.T) {
	prop := func(raw uint8) bool {
		s := Set(raw & 0x3F)
		parsed, err := Parse(s.String())
		return err == nil && parsed == s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// MustParse is Parse for static tables; it panics on bad input.
func MustParse(s string) Set {
	set, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return set
}

// of combines categories into a Set.
func of(cats ...Category) Set {
	var s Set
	for _, c := range cats {
		s = s.Add(c)
	}
	return s
}
