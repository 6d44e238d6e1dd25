package dread

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestScoreAverageAndString(t *testing.T) {
	tests := []struct {
		score Score
		avg   float64
		str   string
	}{
		{MustNew(8, 5, 4, 6, 4), 5.4, "8,5,4,6,4 (5.4)"},
		{MustNew(6, 3, 3, 6, 4), 4.4, "6,3,3,6,4 (4.4)"},
		{MustNew(9, 4, 5, 9, 4), 6.2, "9,4,5,9,4 (6.2)"},
		{MustNew(0, 0, 0, 0, 0), 0.0, "0,0,0,0,0 (0.0)"},
		{MustNew(10, 10, 10, 10, 10), 10.0, "10,10,10,10,10 (10.0)"},
	}
	for _, tt := range tests {
		if got := tt.score.Average(); got != tt.avg {
			t.Errorf("Average(%v) = %v, want %v", tt.score, got, tt.avg)
		}
		if got := tt.score.String(); got != tt.str {
			t.Errorf("String(%v) = %q, want %q", tt.score, got, tt.str)
		}
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	cases := [][5]int{
		{-1, 5, 5, 5, 5},
		{5, 11, 5, 5, 5},
		{5, 5, -3, 5, 5},
		{5, 5, 5, 99, 5},
		{5, 5, 5, 5, -1},
	}
	for _, c := range cases {
		if _, err := New(c[0], c[1], c[2], c[3], c[4]); !errors.Is(err, ErrRange) {
			t.Errorf("New(%v) error = %v, want ErrRange", c, err)
		}
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    Score
		wantErr bool
	}{
		{"8,5,4,6,4 (5.4)", MustNew(8, 5, 4, 6, 4), false},
		{"8,5,4,6,4", MustNew(8, 5, 4, 6, 4), false},
		{" 6, 3 ,3, 6,4  (4.4) ", MustNew(6, 3, 3, 6, 4), false},
		{"8,5,4,6 (5.4)", Score{}, true},   // four components
		{"8,5,4,6,4,2", Score{}, true},     // six components
		{"8,5,4,6,4 (9.9)", Score{}, true}, // wrong average
		{"8,x,4,6,4", Score{}, true},       // non-numeric
		{"8,5,4,6,4 )5.4(", Score{}, true}, // malformed parens
		{"11,5,4,6,4", Score{}, true},      // out of range
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseStringRoundTripProperty(t *testing.T) {
	prop := func(d, r, e, a, disc uint8) bool {
		s := Score{
			Damage:          int(d % 11),
			Reproducibility: int(r % 11),
			Exploitability:  int(e % 11),
			AffectedUsers:   int(a % 11),
			Discoverability: int(disc % 11),
		}
		parsed, err := Parse(s.String())
		return err == nil && parsed == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRatingBands(t *testing.T) {
	tests := []struct {
		score Score
		want  Rating
	}{
		{MustNew(1, 1, 1, 1, 1), Low},
		{MustNew(4, 4, 4, 4, 3), Low},      // avg 3.8
		{MustNew(4, 4, 4, 4, 4), Medium},   // avg 4.0
		{MustNew(6, 6, 6, 6, 5), Medium},   // avg 5.8
		{MustNew(6, 6, 6, 6, 6), High},     // avg 6.0
		{MustNew(8, 8, 8, 8, 7), High},     // avg 7.8
		{MustNew(8, 8, 8, 8, 8), Critical}, // avg 8.0
		{MustNew(10, 10, 10, 10, 10), Critical},
	}
	for _, tt := range tests {
		if got := tt.score.Rate(); got != tt.want {
			t.Errorf("Rate(%v) = %v, want %v", tt.score, got, tt.want)
		}
	}
}

func TestLessOrdering(t *testing.T) {
	lo := MustNew(1, 1, 1, 1, 1)
	hi := MustNew(9, 9, 9, 9, 9)
	if !lo.Less(hi) || hi.Less(lo) {
		t.Error("Less ordering by average is wrong")
	}
	// Same average, damage breaks the tie.
	a := MustNew(4, 6, 5, 5, 5)
	b := MustNew(6, 4, 5, 5, 5)
	if !a.Less(b) || b.Less(a) {
		t.Error("Less tie-break by damage is wrong")
	}
	// Fully equal scores are not Less either way.
	if a.Less(a) {
		t.Error("score Less than itself")
	}
}

func TestRubricLevelValuesAreOrdered(t *testing.T) {
	damage := []DamageLevel{DamageNegligible, DamageCosmetic, DamageDegraded,
		DamageServiceLoss, DamageSubsystem, DamageControl, DamageSafety, DamageLife}
	for i := 1; i < len(damage); i++ {
		if damage[i].Value() < damage[i-1].Value() {
			t.Errorf("damage level %d value %d < previous %d",
				damage[i], damage[i].Value(), damage[i-1].Value())
		}
	}
	repro := []ReproLevel{ReproHard, ReproSituational, ReproReliable, ReproAlways}
	for i := 1; i < len(repro); i++ {
		if repro[i].Value() <= repro[i-1].Value() {
			t.Error("repro levels not strictly increasing")
		}
	}
	exploit := []ExploitLevel{ExploitExpert, ExploitSpecialist, ExploitSkilled, ExploitToolkit, ExploitEasy}
	for i := 1; i < len(exploit); i++ {
		if exploit[i].Value() <= exploit[i-1].Value() {
			t.Error("exploit levels not strictly increasing")
		}
	}
	affected := []AffectedLevel{AffectedFew, AffectedOwner, AffectedOccupants, AffectedBystanders, AffectedFleet}
	for i := 1; i < len(affected); i++ {
		if affected[i].Value() <= affected[i-1].Value() {
			t.Error("affected levels not strictly increasing")
		}
	}
	discover := []DiscoverLevel{DiscoverObscure, DiscoverResearch, DiscoverKnown, DiscoverObvious}
	for i := 1; i < len(discover); i++ {
		if discover[i].Value() <= discover[i-1].Value() {
			t.Error("discover levels not strictly increasing")
		}
	}
}

func TestRubricScore(t *testing.T) {
	r := Rubric{}
	s, err := r.Score(Assessment{
		Damage:          DamageSafety,
		Reproducibility: ReproReliable,
		Exploitability:  ExploitSpecialist,
		AffectedUsers:   AffectedOwner,
		Discoverability: DiscoverObscure,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := MustNew(8, 5, 4, 6, 4); s != want {
		t.Errorf("Score = %v, want %v (Table I row 1)", s, want)
	}
}

func TestRubricRejectsInvalidLevels(t *testing.T) {
	r := Rubric{}
	if _, err := r.Score(Assessment{}); err == nil {
		t.Error("zero assessment accepted")
	}
	if _, err := r.Score(Assessment{
		Damage:          DamageLevel(99),
		Reproducibility: ReproReliable,
		Exploitability:  ExploitSkilled,
		AffectedUsers:   AffectedOwner,
		Discoverability: DiscoverKnown,
	}); err == nil {
		t.Error("invalid damage level accepted")
	}
}

func TestAverageFormatMatchesPaperStyle(t *testing.T) {
	// Table I prints one decimal; verify .0 averages keep the trailing zero.
	s := MustNew(7, 5, 5, 9, 4)
	if got := fmt.Sprintf("%.1f", s.Average()); got != "6.0" {
		t.Errorf("average format %q, want 6.0", got)
	}
}
