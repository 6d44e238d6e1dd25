package difftest

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/car"
	"repro/internal/policy"
	"repro/internal/policy/ir"
	"repro/internal/threatmodel"
)

// tableISet derives the paper's Table I policy exactly as the attack harness
// does, with the full car device model as compile options.
func tableISet(t *testing.T) (*policy.Set, policy.CompileOptions) {
	t.Helper()
	analysis, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	set, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	return set, policy.CompileOptions{Subjects: car.AllNodes, Modes: car.AllModes}
}

// TestSpecHandChecked pins the reference evaluator itself to a few decisions
// small enough to verify by eye, so Check is not comparing backends against
// an unexamined oracle.
func TestSpecHandChecked(t *testing.T) {
	set := &policy.Set{Name: "hand", Version: 1, Rules: []policy.Rule{
		{Name: "a", Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead, IDs: policy.Span(0x10, 0x1F)},
		{Name: "d", Subject: policy.SubjectAll, Effect: policy.Deny, Action: policy.ActRead,
			IDs: policy.SingleID(0x15), Modes: policy.NewModeSet("failsafe")},
	}}
	opts := policy.CompileOptions{Subjects: []string{"ecu"}, Modes: []policy.Mode{"normal", "failsafe"}}
	cases := []struct {
		p    Probe
		want policy.Effect
	}{
		{Probe{"ecu", "normal", policy.ActRead, 0x15}, policy.Allow},
		{Probe{"ecu", "failsafe", policy.ActRead, 0x15}, policy.Deny},    // deny overrides
		{Probe{"ecu", "normal", policy.ActWrite, 0x15}, policy.Deny},     // wrong direction
		{Probe{"ecu", "normal", policy.ActRead, 0x20}, policy.Deny},      // outside range
		{Probe{"ghost", "normal", policy.ActRead, 0x15}, policy.Deny},    // unknown subject
		{Probe{"ecu", "track", policy.ActRead, 0x15}, policy.Deny},       // unknown mode
		{Probe{"ecu", "normal", policy.ActReadWrite, 0x15}, policy.Deny}, // invalid act
	}
	for _, c := range cases {
		if got := Spec(set, opts, c.p); got != c.want {
			t.Errorf("Spec(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestUniverseCoversBoundaries checks the probe matrix includes the decisive
// coordinates: unknown subject, foreign mode, invalid actions, and the ±1
// neighbours of every range boundary.
func TestUniverseCoversBoundaries(t *testing.T) {
	set := &policy.Set{Name: "u", Version: 1, Rules: []policy.Rule{
		{Name: "a", Subject: "ecu", Effect: policy.Allow, Action: policy.ActRead, IDs: policy.Span(0x10, 0x1F)},
	}}
	opts := policy.CompileOptions{Subjects: []string{"ecu"}, Modes: []policy.Mode{"normal"}}
	probes := Universe(set, opts)
	want := map[Probe]bool{
		{unknownSubject, "normal", policy.ActRead, 0x10}: false,
		{"ecu", foreignMode, policy.ActRead, 0x10}:       false,
		{"ecu", "normal", policy.ActReadWrite, 0x10}:     false,
		{"ecu", "normal", 0, 0x10}:                       false,
		{"ecu", "normal", policy.ActRead, 0x0F}:          false,
		{"ecu", "normal", policy.ActRead, 0x20}:          false,
		{"ecu", "normal", policy.ActRead, 0x7FC0DE}:      false,
	}
	for _, p := range probes {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("Universe missing probe %+v", p)
		}
	}
}

// TestCheckTableI is the headline differential test: every registered
// backend must agree with the specification on the full Table I probe
// matrix over the complete car device model.
func TestCheckTableI(t *testing.T) {
	set, opts := tableISet(t)
	if err := Check(set, opts); err != nil {
		t.Fatal(err)
	}
}

// TestTableIMatrixConcurrent re-runs the Table I matrix with every backend's
// enforcer shared across goroutines, one per device subject, so -race proves
// the Decide hot path is safe for concurrent use — the deployment shape when
// many simulated vehicles share a compiled enforcer.
func TestTableIMatrixConcurrent(t *testing.T) {
	set, opts := tableISet(t)
	probes := Universe(set, opts)
	for _, name := range ir.Names() {
		o := opts
		o.Backend = name
		enf, err := ir.Build(set, o)
		if err != nil {
			t.Fatalf("backend %s: %v", name, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(opts.Subjects))
		for _, subject := range opts.Subjects {
			wg.Add(1)
			go func(subject string) {
				defer wg.Done()
				node := enf.Node(subject)
				for _, p := range probes {
					if p.Subject != subject {
						continue
					}
					want := Spec(set, opts, p)
					if got := enf.Decide(p.Subject, p.ID, p.Act, ir.Context{Mode: p.Mode}); got.Effect != want {
						errs <- &divergence{name, p, got.Effect, want}
						return
					}
					if hot := node.Resolve(p.Mode).Allow(p.Act, p.ID); hot != (want == policy.Allow) {
						errs <- &divergence{name, p, policy.Effect(0), want}
						return
					}
				}
			}(subject)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

type divergence struct {
	backend string
	probe   Probe
	got     policy.Effect
	want    policy.Effect
}

func (d *divergence) Error() string {
	var b strings.Builder
	b.WriteString("backend ")
	b.WriteString(d.backend)
	b.WriteString(" diverged at ")
	b.WriteString(d.probe.Subject)
	b.WriteString("/")
	b.WriteString(string(d.probe.Mode))
	return b.String()
}

// splitmix64 is the stack's standard seed-expansion step, used here to
// derive deterministic pseudo-random byte strings for the property test.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// TestCheckFuzzedPolicies is the deterministic slice of the fuzz target: 256
// pseudo-random byte strings through GenPolicy, each Check'd across every
// backend. Failures reproduce exactly (no wall-clock randomness).
func TestCheckFuzzedPolicies(t *testing.T) {
	state := uint64(0xD1F7_7E57)
	next := func() uint64 { state = splitmix64(state); return state }
	for trial := 0; trial < 256; trial++ {
		n := int(next() % 64) // 0..15 rules
		data := make([]byte, n)
		for i := 0; i+8 <= n; i += 8 {
			v := next()
			for j := 0; j < 8; j++ {
				data[i+j] = byte(v >> (8 * j))
			}
		}
		set, opts := GenPolicy(data)
		if err := set.Validate(); err != nil {
			t.Fatalf("trial %d: GenPolicy produced invalid set: %v", trial, err)
		}
		failed, err := CheckCompileError(set, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if failed {
			continue
		}
		if err := Check(set, opts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
