package policy

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	s := MustParse(sampleDSL)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.Version != s.Version || len(back.Rules) != len(s.Rules) {
		t.Fatalf("header/rules changed: %s/%d %d rules", back.Name, back.Version, len(back.Rules))
	}
	// Semantics preserved on a probe grid.
	for _, subj := range append(s.Subjects(), "ghost") {
		for _, mode := range append(s.Modes(), "ghost-mode") {
			for id := uint32(0x0F0); id <= 0x7E0; id += 5 {
				for _, act := range []Action{ActRead, ActWrite} {
					if s.Decide(subj, mode, act, id) != back.Decide(subj, mode, act, id) {
						t.Fatalf("JSON round trip changed semantics at %s/%s/%v/0x%X",
							subj, mode, act, id)
					}
				}
			}
		}
	}
}

func TestJSONSelfDescribes(t *testing.T) {
	s := MustParse(`policy "p" version 3 { allow read 0x10..0x12 at ecu in Normal as "r" }`)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, frag := range []string{`"default":"deny"`, `"version":3`, `"subject":"ecu"`,
		`"action":"R"`, `"effect":"allow"`, `"modes":["Normal"]`, `"name":"r"`} {
		if !strings.Contains(text, frag) {
			t.Errorf("JSON missing %q:\n%s", frag, text)
		}
	}
}

func TestJSONRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", `{{`},
		{"default allow", `{"name":"p","version":1,"default":"allow","rules":[]}`},
		{"bad effect", `{"name":"p","version":1,"rules":[{"subject":"x","effect":"permit","action":"R","ids":[[1,1]]}]}`},
		{"bad action", `{"name":"p","version":1,"rules":[{"subject":"x","effect":"allow","action":"X","ids":[[1,1]]}]}`},
		{"no ids", `{"name":"p","version":1,"rules":[{"subject":"x","effect":"allow","action":"R","ids":[]}]}`},
		{"inverted range", `{"name":"p","version":1,"rules":[{"subject":"x","effect":"allow","action":"R","ids":[[5,1]]}]}`},
		{"no name", `{"name":"","version":1,"rules":[]}`},
		{"wildcard mode", `{"name":"p","version":1,"rules":[{"subject":"ecu","effect":"allow","action":"read","ids":[[16,16]],"modes":["*"]}]}`},
		{"mode with a space", `{"name":"p","version":1,"rules":[{"subject":"ecu","effect":"allow","action":"read","ids":[[16,16]],"modes":["x y"]}]}`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var s Set
			if err := json.Unmarshal([]byte(tt.in), &s); err == nil {
				t.Error("bad document accepted")
			}
		})
	}
}

func TestJSONMarshalValidates(t *testing.T) {
	bad := &Set{Name: "", Version: 1}
	if _, err := json.Marshal(bad); err == nil {
		t.Error("marshal of invalid set succeeded")
	}
}

func TestJSONDSLEquivalence(t *testing.T) {
	// DSL -> Set -> JSON -> Set -> DSL: the final DSL must reparse to the
	// same semantics as the original.
	orig := MustParse(sampleDSL)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var mid Set
	if err := json.Unmarshal(data, &mid); err != nil {
		t.Fatal(err)
	}
	final, err := Parse(mid.String())
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0x100); id <= 0x110; id++ {
		if orig.Decide("EV-ECU", "Normal", ActRead, id) != final.Decide("EV-ECU", "Normal", ActRead, id) {
			t.Fatalf("cross-format equivalence broken at 0x%X", id)
		}
	}
}

// TestJSONReadsBackThroughDSL: every set the JSON form loads renders
// through Set.String as DSL that Parse reads back to the same rendering and
// the same decisions, odd subjects and every identifier character a mode
// name may use included; a mode name that is no identifier does not load.
func TestJSONReadsBackThroughDSL(t *testing.T) {
	doc := `{"name":"p","version":4,"rules":[
		{"subject":"ecu","effect":"allow","action":"read","ids":[[16,16]],"modes":["Normal","remote-diag","a/b.c","_x9"]},
		{"subject":"odd subject","effect":"deny","action":"write","ids":[[32,40]],"modes":["Normal"]},
		{"subject":"*","effect":"allow","action":"readwrite","ids":[[48,48]],"name":"all"}]}`
	var s Set
	if err := json.Unmarshal([]byte(doc), &s); err != nil {
		t.Fatal(err)
	}
	text := s.String()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("the DSL rendering of a loaded JSON set does not parse: %v\n%s", err, text)
	}
	if got := back.String(); got != text {
		t.Errorf("DSL round trip changed the rendering:\n%s\nwant\n%s", got, text)
	}
	for _, subj := range []string{"ecu", "odd subject", "ghost"} {
		for _, mode := range []Mode{"Normal", "remote-diag", "a/b.c", "_x9", "ghost"} {
			for id := uint32(0); id <= 0x40; id++ {
				for _, act := range []Action{ActRead, ActWrite} {
					if s.Decide(subj, mode, act, id) != back.Decide(subj, mode, act, id) {
						t.Fatalf("DSL round trip changed the decision at %s/%s/%v/0x%X", subj, mode, act, id)
					}
				}
			}
		}
	}
	for _, mode := range []string{"*", "x y", "", "9lives", "a..b"} {
		bad := strings.Replace(doc, `"_x9"`, strconv.Quote(mode), 1)
		var s Set
		if err := json.Unmarshal([]byte(bad), &s); !errors.Is(err, ErrBadMode) {
			t.Errorf("mode %q: loading returned %v, want ErrBadMode", mode, err)
		}
	}
}
