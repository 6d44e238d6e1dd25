package stride

import "testing"

// FuzzParse feeds arbitrary text to the Table I letter-notation parser: it
// must never panic, and Parse(set.String()) must return any set it accepts
// (canonical rendering round trip). A seed corpus under testdata/fuzz keeps
// the CI smoke warm.
func FuzzParse(f *testing.F) {
	f.Add("STD")
	f.Add("STIDE")
	f.Add("stide")
	f.Add("SD")
	f.Add("TDE")
	f.Add("STR")
	f.Add("TE")
	f.Add("-")
	f.Add("")
	f.Add("SSTTDD")
	f.Add("STDX")
	f.Add("S T D")

	f.Fuzz(func(t *testing.T, src string) {
		set, err := Parse(src)
		if err != nil {
			return
		}
		rendered := set.String()
		set2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted set does not re-parse: %v\n--- source ---\n%q\n--- rendered ---\n%q",
				err, src, rendered)
		}
		if set2 != set {
			t.Fatalf("render round trip changed the set: %v -> %v (source %q)", set, set2, src)
		}
	})
}
