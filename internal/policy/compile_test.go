package policy

import (
	"testing"
	"testing/quick"
)

func compileOpts(kind LookupKind) CompileOptions {
	return CompileOptions{
		Subjects: []string{"ecu", "sensors", "other"},
		Modes:    []Mode{"Normal", "Diag"},
		Lookup:   kind,
	}
}

func TestCompileMatchesDecide(t *testing.T) {
	// The compiled tables must agree with direct Set evaluation everywhere.
	s := testSet()
	for _, kind := range []LookupKind{LookupHash, LookupSorted, LookupLinear} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c, err := Compile(s, compileOpts(kind))
			if err != nil {
				t.Fatal(err)
			}
			for _, subj := range compileOpts(kind).Subjects {
				nt := c.Node(subj)
				for _, mode := range []Mode{"Normal", "Diag"} {
					mt := nt.Table(mode)
					for id := uint32(0x0F0); id <= 0x7E0; id += 7 {
						wantR := s.Decide(subj, mode, ActRead, id) == Allow
						wantW := s.Decide(subj, mode, ActWrite, id) == Allow
						if got := mt.Reads.Contains(id); got != wantR {
							t.Fatalf("%s/%s read 0x%X: table=%v decide=%v", subj, mode, id, got, wantR)
						}
						if got := mt.Writes.Contains(id); got != wantW {
							t.Fatalf("%s/%s write 0x%X: table=%v decide=%v", subj, mode, id, got, wantW)
						}
					}
				}
			}
		})
	}
}

func TestCompileUnknownSubjectAndModeDenyAll(t *testing.T) {
	c, err := Compile(testSet(), compileOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	ghost := c.Node("ghost")
	mt := ghost.Table("Normal")
	if mt.Reads.Len() != 0 || mt.Writes.Len() != 0 {
		t.Error("unknown subject should have deny-all tables")
	}
	known := c.Node("ecu")
	um := known.Table("UnknownMode")
	if um.Reads != nil && um.Reads.Len() != 0 {
		t.Error("unknown mode should fall back to deny-all")
	}
}

func TestCompileRequiresSubjectsAndModes(t *testing.T) {
	if _, err := Compile(testSet(), CompileOptions{Modes: []Mode{"m"}}); err == nil {
		t.Error("missing subjects accepted")
	}
	if _, err := Compile(testSet(), CompileOptions{Subjects: []string{"s"}}); err == nil {
		t.Error("missing modes accepted")
	}
}

func TestCompileTableLimit(t *testing.T) {
	s := &Set{Name: "big", Version: 1, Rules: []Rule{
		{Subject: "x", Effect: Allow, Action: ActRead, IDs: Span(0, TableLimit)},
	}}
	opts := CompileOptions{Subjects: []string{"x"}, Modes: []Mode{"m"}}
	if _, err := Compile(s, opts); err == nil {
		t.Error("table limit not enforced")
	}
	s.Rules[0].IDs = Span(0, TableLimit-1)
	if _, err := Compile(s, opts); err != nil {
		t.Errorf("compile at the limit failed: %v", err)
	}
}

func TestCompiledMetadata(t *testing.T) {
	c, err := Compile(testSet(), compileOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "test" || c.Version != 1 {
		t.Errorf("metadata = %s/%d", c.Name, c.Version)
	}
	subs := c.Subjects()
	if len(subs) != 3 {
		t.Errorf("Subjects = %v", subs)
	}
}

func TestLookupKindsAgreeProperty(t *testing.T) {
	prop := func(rawIDs []uint16, probe uint16) bool {
		ids := make([]uint32, len(rawIDs))
		for i, v := range rawIDs {
			ids[i] = uint32(v)
		}
		h, err1 := NewIDLookup(LookupHash, ids)
		s, err2 := NewIDLookup(LookupSorted, ids)
		l, err3 := NewIDLookup(LookupLinear, ids)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		p := uint32(probe)
		return h.Contains(p) == s.Contains(p) && s.Contains(p) == l.Contains(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLookupIDsSorted(t *testing.T) {
	ids := []uint32{9, 3, 7, 3, 1}
	for _, kind := range []LookupKind{LookupHash, LookupSorted, LookupLinear} {
		l, err := NewIDLookup(kind, ids)
		if err != nil {
			t.Fatal(err)
		}
		got := l.IDs()
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Errorf("%v IDs not sorted: %v", kind, got)
			}
		}
	}
	if _, err := NewIDLookup(LookupKind(99), ids); err == nil {
		t.Error("invalid lookup kind accepted")
	}
}
