package ir

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/policy"
)

// testSet is a policy exercising every lowering shape: wildcard subject,
// mode-restricted rules, deny-overrides, multi-range IDs, and rules that are
// unreachable on the device model (unknown subject, foreign modes).
func testSet() *policy.Set {
	return &policy.Set{
		Name:    "unit",
		Version: 7,
		Rules: []policy.Rule{
			{Name: "telemetry", Subject: policy.SubjectAll, Effect: policy.Allow,
				Action: policy.ActRead, IDs: policy.Span(0x100, 0x103)},
			{Name: "ecu-w", Subject: "ecu", Effect: policy.Allow,
				Action: policy.ActWrite, IDs: policy.IDSet{{Lo: 0x200, Hi: 0x200}, {Lo: 0x300, Hi: 0x302}}},
			{Name: "diag-rw", Subject: "diag", Effect: policy.Allow,
				Action: policy.ActReadWrite, IDs: policy.Span(0x100, 0x400),
				Modes: policy.NewModeSet("remote-diag")},
			{Name: "lockdown", Subject: policy.SubjectAll, Effect: policy.Deny,
				Action: policy.ActWrite, IDs: policy.SingleID(0x300),
				Modes: policy.NewModeSet("failsafe")},
			{Name: "ghost-node", Subject: "absent", Effect: policy.Allow,
				Action: policy.ActReadWrite, IDs: policy.Span(0, 0x7FF)},
			{Name: "ghost-mode", Subject: "ecu", Effect: policy.Allow,
				Action: policy.ActWrite, IDs: policy.SingleID(0x7FF),
				Modes: policy.NewModeSet("track-day")},
		},
	}
}

func testOpts() policy.CompileOptions {
	return policy.CompileOptions{
		Subjects: []string{"ecu", "diag", "infotainment"},
		Modes:    []policy.Mode{"normal", "remote-diag", "failsafe"},
	}
}

// specDecide is the closed-world reference: the contract in the package
// comment stated over the raw rule set.
func specDecide(set *policy.Set, opts policy.CompileOptions, subject string, mode policy.Mode, act policy.Action, id uint32) policy.Effect {
	if act != policy.ActRead && act != policy.ActWrite {
		return policy.Deny
	}
	known := false
	for _, s := range opts.Subjects {
		if s == subject {
			known = true
		}
	}
	if !known {
		return policy.Deny
	}
	known = false
	for _, m := range opts.Modes {
		if m == mode {
			known = true
		}
	}
	if !known {
		return policy.Deny
	}
	return set.Decide(subject, mode, act, id)
}

func TestLower(t *testing.T) {
	p, err := Lower(testSet(), testOpts())
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if p.Name != "unit" || p.Version != 7 {
		t.Errorf("identity = %q v%d, want unit v7", p.Name, p.Version)
	}
	if p.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2 (ghost-node, ghost-mode)", p.Dropped)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("len(Rules) = %d, want 4", len(p.Rules))
	}
	if p.Rules[0].Subject != Wildcard {
		t.Errorf("wildcard rule lowered to subject %d", p.Rules[0].Subject)
	}
	if si, ok := p.SubjectIndex("ecu"); !ok || p.Rules[1].Subject != si {
		t.Errorf("ecu rule subject = %d (ecu index %d, ok=%v)", p.Rules[1].Subject, si, ok)
	}
	allModes := uint64(1)<<3 - 1
	if p.Rules[0].Modes != allModes {
		t.Errorf("universal rule mask = %b, want %b", p.Rules[0].Modes, allModes)
	}
	mi := p.modeIdx["remote-diag"]
	if p.Rules[2].Modes != 1<<mi {
		t.Errorf("diag-rw mask = %b, want bit %d", p.Rules[2].Modes, mi)
	}
	if !p.Universe.Contains(0x400) || p.Universe.Contains(0x401) {
		t.Errorf("universe %s misses 0x400 or includes 0x401", p.Universe)
	}
}

func TestLowerErrors(t *testing.T) {
	set := testSet()
	if _, err := Lower(set, policy.CompileOptions{Modes: []policy.Mode{"normal"}}); err == nil {
		t.Error("no subjects: want error")
	}
	if _, err := Lower(set, policy.CompileOptions{Subjects: []string{"ecu"}}); err == nil {
		t.Error("no modes: want error")
	}
	big := testSet()
	big.Rules = append(big.Rules, policy.Rule{Name: "huge", Subject: "ecu", Effect: policy.Allow,
		Action: policy.ActRead, IDs: policy.Span(0, policy.TableLimit)})
	if _, err := Lower(big, testOpts()); err == nil {
		t.Error("universe over TableLimit: want error")
	}
	opts := testOpts()
	opts.Subjects = []string{"ecu", "ecu"}
	if _, err := Lower(set, opts); err == nil {
		t.Error("duplicate subject: want error")
	}
	wide := make([]policy.Mode, MaxModes+1)
	for i := range wide {
		wide[i] = policy.Mode("m" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	opts = testOpts()
	opts.Modes = wide
	if _, err := Lower(set, opts); err == nil {
		t.Error("too many modes: want error")
	}
}

func TestToSetRoundTrip(t *testing.T) {
	set, opts := testSet(), testOpts()
	p, err := Lower(set, opts)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	back := p.ToSet()
	if _, err := Lower(back, opts); err != nil {
		t.Fatalf("re-Lower: %v", err)
	}
	for _, subj := range append(opts.Subjects, "absent") {
		for _, mode := range append(opts.Modes, "track-day") {
			for id := uint32(0x0FF); id <= 0x401; id++ {
				for _, act := range []policy.Action{policy.ActRead, policy.ActWrite} {
					if got, want := specDecide(back, opts, subj, mode, act, id), specDecide(set, opts, subj, mode, act, id); got != want {
						t.Fatalf("round-trip diverges at (%s,%s,%v,0x%X): %v != %v", subj, mode, act, id, got, want)
					}
				}
			}
		}
	}
}

func TestBackendsMatchSpec(t *testing.T) {
	set, opts := testSet(), testOpts()
	p, err := Lower(set, opts)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		enf, err := b.Compile(p)
		if err != nil {
			t.Fatalf("%s.Compile: %v", name, err)
		}
		if enf.Backend() != name {
			t.Errorf("%s enforcer reports backend %q", name, enf.Backend())
		}
		if n, v := enf.Policy(); n != "unit" || v != 7 {
			t.Errorf("%s enforcer identity = %q v%d", name, n, v)
		}
		subjects := append(append([]string{}, opts.Subjects...), "absent")
		modes := append(append([]policy.Mode{}, opts.Modes...), "track-day")
		acts := []policy.Action{policy.ActRead, policy.ActWrite, policy.ActReadWrite, 0}
		universe, err := p.Universe.Enumerate(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, subj := range subjects {
			node := enf.Node(subj)
			for _, mode := range modes {
				mt := node.Table(mode)
				// Each list enumerates the universe identifiers the
				// closed-world reference allows in its direction.
				for act, l := range map[policy.Action]policy.IDLookup{policy.ActRead: mt.Reads, policy.ActWrite: mt.Writes} {
					var want []uint32
					for _, id := range universe {
						if specDecide(set, opts, subj, mode, act, id) == policy.Allow {
							want = append(want, id)
						}
					}
					if got := l.IDs(); !slices.Equal(got, want) || l.Len() != len(want) {
						t.Fatalf("%s (%s,%s,%v) list IDs = %v (Len %d), want %v", name, subj, mode, act, got, l.Len(), want)
					}
				}
				for _, act := range acts {
					for id := uint32(0x0FF); id <= 0x401; id++ {
						want := specDecide(set, opts, subj, mode, act, id)
						got := enf.Decide(subj, id, act, Context{Mode: mode})
						if got.Effect != want {
							t.Fatalf("%s.Decide(%s,%s,%v,0x%X) = %v, want %v", name, subj, mode, act, id, got.Effect, want)
						}
						if lookup(mt, act, id) != (want == policy.Allow) {
							t.Fatalf("%s approved lists diverge from Decide at (%s,%s,%v,0x%X)", name, subj, mode, act, id)
						}
					}
				}
			}
		}
	}
}

// lookup reads a decision off one mode's approved lists, as the HPE does:
// only the two single directions have a list.
func lookup(mt policy.ModeTable, act policy.Action, id uint32) bool {
	switch act {
	case policy.ActRead:
		return mt.Reads.Contains(id)
	case policy.ActWrite:
		return mt.Writes.Contains(id)
	}
	return false
}

func TestBuildAndRegistry(t *testing.T) {
	set, opts := testSet(), testOpts()
	for _, name := range []string{"", "table", "expr", "closure"} {
		opts.Backend = name
		enf, err := Build(set, opts)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = DefaultBackend
		}
		if enf.Backend() != want {
			t.Errorf("Build(%q) compiled with %q", name, enf.Backend())
		}
	}
	opts.Backend = "jit"
	_, err := Build(set, opts)
	if err == nil {
		t.Fatal("Build(jit): want error")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-backend error %q does not name %q", err, name)
		}
	}
}

func TestTableEnforcerExposesCompiled(t *testing.T) {
	set, opts := testSet(), testOpts()
	opts.Backend = "table"
	enf, err := Build(set, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, ok := enf.(*TableEnforcer); !ok {
		t.Fatalf("table backend built %T, want *TableEnforcer", enf)
	}
	direct, err := policy.Compile(set, testOpts())
	if err != nil {
		t.Fatalf("policy.Compile: %v", err)
	}
	wrapped := WrapCompiled(direct)
	for _, subj := range testOpts().Subjects {
		// The HPE installs exactly the table policy.Compile built.
		if wrapped.Node(subj) != direct.Node(subj) {
			t.Fatalf("WrapCompiled.Node(%s) is not the compiled table", subj)
		}
		for _, mode := range testOpts().Modes {
			for id := uint32(0x0FF); id <= 0x401; id++ {
				for _, act := range []policy.Action{policy.ActRead, policy.ActWrite} {
					if got, want := wrapped.Decide(subj, id, act, Context{Mode: mode}).Effect, specDecide(set, testOpts(), subj, mode, act, id); got != want {
						t.Fatalf("WrapCompiled diverges at (%s,%s,%v,0x%X): %v != %v", subj, mode, act, id, got, want)
					}
				}
			}
		}
	}
}

func TestDecideAllocFree(t *testing.T) {
	set, opts := testSet(), testOpts()
	for _, name := range Names() {
		opts.Backend = name
		enf, err := Build(set, opts)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		mt := enf.Node("ecu").Table("normal")
		allocs := testing.AllocsPerRun(1000, func() {
			mt.Writes.Contains(0x300)
			mt.Reads.Contains(0x101)
		})
		if allocs != 0 {
			t.Errorf("%s approved-list Contains allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestClosureDump(t *testing.T) {
	set, opts := testSet(), testOpts()
	opts.Backend = "closure"
	enf, err := Build(set, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	d, ok := enf.(interface{ Dump() string })
	if !ok {
		t.Fatalf("closure enforcer %T has no Dump", enf)
	}
	out := d.Dump()
	for _, want := range []string{
		`jumptable policy "unit" version 7`,
		`subject "ecu"`,
		"mode remote-diag",
		"0x100..0x103",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
	// The failsafe lockdown denies writes to 0x300 fleet-wide: the ecu
	// failsafe W row must not contain it while normal does.
	lines := strings.Split(out, "\n")
	var normalW, failW string
	mode := ""
	inECU := false
	for _, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		if strings.HasPrefix(ln, "subject ") {
			inECU = strings.Contains(ln, `"ecu"`)
		}
		if strings.HasPrefix(trimmed, "mode ") {
			mode = strings.TrimPrefix(trimmed, "mode ")
		}
		if inECU && strings.HasPrefix(trimmed, "W ") {
			if mode == "normal" {
				normalW = trimmed
			}
			if mode == "failsafe" {
				failW = trimmed
			}
		}
	}
	if !strings.Contains(normalW, "0x300") {
		t.Errorf("ecu normal W row %q missing 0x300", normalW)
	}
	if strings.Contains(failW, "0x300") {
		t.Errorf("ecu failsafe W row %q still grants 0x300", failW)
	}
}

func TestTranspileDeterministic(t *testing.T) {
	set, opts := testSet(), testOpts()
	p, err := Lower(set, opts)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	rego1, rego2 := TranspileRego(p), TranspileRego(p)
	if rego1 != rego2 {
		t.Error("TranspileRego is nondeterministic")
	}
	cel1, cel2 := TranspileCEL(p), TranspileCEL(p)
	if cel1 != cel2 {
		t.Error("TranspileCEL is nondeterministic")
	}
	for _, want := range []string{"package repro.enforce", `default decision = "deny"`, "not deny", `input.subject == "ecu"`, "input.id >= 768"} {
		if !strings.Contains(rego1, want) {
			t.Errorf("rego output missing %q:\n%s", want, rego1)
		}
	}
	for _, want := range []string{"allow :=", "deny :=", `subject == "ecu"`, `mode == "remote-diag"`, "id >= 256u"} {
		if !strings.Contains(cel1, want) {
			t.Errorf("cel output missing %q:\n%s", want, cel1)
		}
	}
}
