package dread

import "testing"

func TestRatingStrings(t *testing.T) {
	tests := []struct {
		rating Rating
		want   string
	}{
		{Low, "Low"},
		{Medium, "Medium"},
		{High, "High"},
		{Critical, "Critical"},
		{Rating(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.rating.String(); got != tt.want {
			t.Errorf("Rating(%d) = %q, want %q", tt.rating, got, tt.want)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with out-of-range component did not panic")
		}
	}()
	MustNew(11, 0, 0, 0, 0)
}

func TestAssessmentValidateEachField(t *testing.T) {
	valid := Assessment{
		Damage:          DamageControl,
		Reproducibility: ReproReliable,
		Exploitability:  ExploitSkilled,
		AffectedUsers:   AffectedOwner,
		Discoverability: DiscoverKnown,
	}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Assessment){
		func(a *Assessment) { a.Damage = 99 },
		func(a *Assessment) { a.Reproducibility = 99 },
		func(a *Assessment) { a.Exploitability = 99 },
		func(a *Assessment) { a.AffectedUsers = 99 },
		func(a *Assessment) { a.Discoverability = 99 },
	}
	for i, mutate := range mutations {
		a := valid
		mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d: invalid level accepted", i)
		}
	}
}
