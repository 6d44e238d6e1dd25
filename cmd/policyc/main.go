// Command policyc is the policy DSL compiler and signing tool: it parses
// and validates a policy document, optionally compiles it into the per-node
// approved reading/writing lists loaded by the hardware policy engine, and
// signs or verifies distributable bundles.
//
// Usage:
//
//	policyc -in policy.pol -check
//	policyc -in policy.pol -compile -subjects EV-ECU,Sensors -modes Normal,FailSafe
//	policyc -in policy.pol -compile -backend closure
//	policyc -in policy.pol -emit rego      # transpile to Rego text
//	policyc -in policy.pol -emit cel       # transpile to a CEL expression
//	policyc -in policy.pol -emit jumptable # dump the closure backend's tables
//	policyc -in policy.pol -sign -seed-file oem.seed -out bundle.json
//	policyc -verify bundle.json -seed-file oem.seed
//	policyc -table-i            # emit the connected-car policy derived from Table I
package main

import (
	"crypto/ed25519"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/car"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/policy/ir"
)

// usageError marks operator mistakes (unknown backend or emit format) that
// exit 2 — distinguishing bad invocations from bad inputs, which exit 1.
type usageError struct{ error }

func main() {
	in := flag.String("in", "", "input policy DSL file (default stdin)")
	check := flag.Bool("check", false, "parse and validate only")
	compile := flag.Bool("compile", false, "compile and print per-node approved lists")
	subjects := flag.String("subjects", "", "comma-separated subjects for -compile/-emit")
	modes := flag.String("modes", "", "comma-separated modes for -compile/-emit")
	backend := flag.String("backend", "", "enforcement backend for -compile: "+strings.Join(ir.Names(), ", ")+" (default table)")
	emit := flag.String("emit", "", "export the compiled policy: rego, cel, or jumptable")
	sign := flag.Bool("sign", false, "sign the policy into a bundle")
	verify := flag.String("verify", "", "bundle file to verify")
	seedFile := flag.String("seed-file", "", "32-byte ed25519 seed file for -sign/-verify")
	out := flag.String("out", "", "output file for -sign (default stdout)")
	tableI := flag.Bool("table-i", false, "emit the derived connected-car policy DSL and exit")
	diffOld := flag.String("diff", "", "old policy file: print the semantic diff from it to -in and exit")
	flag.Parse()

	if err := run(*in, *check, *compile, *subjects, *modes, *backend, *emit, *sign, *verify, *seedFile, *out, *tableI, *diffOld); err != nil {
		fmt.Fprintln(os.Stderr, "policyc:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(in string, check, compile bool, subjects, modes, backend, emit string, sign bool, verify, seedFile, out string, tableI bool, diffOld string) error {
	if _, err := ir.Lookup(backend); err != nil {
		return usageError{fmt.Errorf("%w\nusage: -backend takes one of: %s", err, strings.Join(ir.Names(), ", "))}
	}
	switch emit {
	case "", "rego", "cel", "jumptable":
	default:
		return usageError{fmt.Errorf("unknown -emit format %q\nusage: -emit takes one of: rego, cel, jumptable", emit)}
	}
	if tableI {
		model, err := core.BuildModel(car.UseCase(), car.Threats(), "table-i", 1)
		if err != nil {
			return err
		}
		fmt.Print(model.Policies.String())
		return nil
	}
	if verify != "" {
		return verifyBundle(verify, seedFile)
	}
	src, err := readInput(in)
	if err != nil {
		return err
	}
	set, err := policy.Parse(src)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "parsed policy %q version %d: %d rules, %d subjects, %d modes\n",
		set.Name, set.Version, len(set.Rules), len(set.Subjects()), len(set.Modes()))
	if diffOld != "" {
		oldSrc, err := os.ReadFile(diffOld)
		if err != nil {
			return err
		}
		oldSet, err := policy.Parse(string(oldSrc))
		if err != nil {
			return fmt.Errorf("parsing %s: %w", diffOld, err)
		}
		d, err := policy.DiffSets(oldSet, set)
		if err != nil {
			return err
		}
		fmt.Printf("semantic diff %s (v%d) -> -in (v%d):\n%s",
			diffOld, oldSet.Version, set.Version, d.String())
		return nil
	}
	if emit != "" {
		return emitPolicy(os.Stdout, set, subjects, modes, emit)
	}
	if check && !compile && !sign {
		return nil
	}
	if compile {
		if err := compileAndPrint(set, subjects, modes, backend); err != nil {
			return err
		}
	}
	if sign {
		return signBundle(src, seedFile, out)
	}
	return nil
}

func readInput(in string) (string, error) {
	if in == "" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// deviceModel resolves the -subjects/-modes flags to compile options,
// defaulting to the subjects and modes the policy itself mentions.
func deviceModel(set *policy.Set, subjects, modes string) policy.CompileOptions {
	subjList := splitList(subjects)
	if len(subjList) == 0 {
		subjList = set.Subjects()
	}
	var pModes []policy.Mode
	for _, m := range splitList(modes) {
		pModes = append(pModes, policy.Mode(m))
	}
	if len(pModes) == 0 {
		pModes = set.Modes()
		if len(pModes) == 0 {
			pModes = []policy.Mode{"default"}
		}
	}
	return policy.CompileOptions{Subjects: subjList, Modes: pModes}
}

// emitPolicy exports the lowered policy in the named textual form: the expr
// backend's transpiled source (rego or cel) or the closure backend's
// jump-table dump.
func emitPolicy(w io.Writer, set *policy.Set, subjects, modes, format string) error {
	opts := deviceModel(set, subjects, modes)
	switch format {
	case "rego", "cel":
		p, err := ir.Lower(set, opts)
		if err != nil {
			return err
		}
		if format == "rego" {
			_, err = io.WriteString(w, ir.TranspileRego(p))
		} else {
			_, err = io.WriteString(w, ir.TranspileCEL(p))
		}
		return err
	default: // jumptable
		opts.Backend = "closure"
		enf, err := ir.Build(set, opts)
		if err != nil {
			return err
		}
		d, ok := enf.(interface{ Dump() string })
		if !ok {
			return fmt.Errorf("closure backend does not expose a jump-table dump")
		}
		_, err = io.WriteString(w, d.Dump())
		return err
	}
}

func compileAndPrint(set *policy.Set, subjects, modes, backend string) error {
	opts := deviceModel(set, subjects, modes)
	if backend != "" && backend != ir.DefaultBackend {
		// Compile under the named backend so its errors surface here, then
		// print the canonical per-node lists — backends are
		// decision-equivalent, so the lists are backend-invariant.
		opts.Backend = backend
		enf, err := ir.Build(set, opts)
		if err != nil {
			return err
		}
		name, version := enf.Policy()
		fmt.Printf("backend %s: policy %q version %d\n", enf.Backend(), name, version)
		opts.Backend = ""
	}
	compiled, err := policy.Compile(set, opts)
	if err != nil {
		return err
	}
	for _, subj := range compiled.Subjects() {
		nt := compiled.Node(subj)
		fmt.Printf("node %s\n", subj)
		for _, mode := range compiled.Modes {
			mt := nt.Table(mode)
			fmt.Printf("  mode %-12s reads: %s\n", mode, fmtIDs(mt.Reads))
			fmt.Printf("  %-17s writes: %s\n", "", fmtIDs(mt.Writes))
		}
	}
	return nil
}

func fmtIDs(l policy.IDLookup) string {
	if l == nil || l.Len() == 0 {
		return "(none)"
	}
	ids := l.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("0x%03X", id)
	}
	return strings.Join(parts, " ")
}

func loadKey(seedFile string) (ed25519.PrivateKey, error) {
	if seedFile == "" {
		return nil, fmt.Errorf("-seed-file is required")
	}
	seed, err := os.ReadFile(seedFile)
	if err != nil {
		return nil, err
	}
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("seed file must hold exactly %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return ed25519.NewKeyFromSeed(seed), nil
}

func signBundle(src, seedFile, out string) error {
	key, err := loadKey(seedFile)
	if err != nil {
		return err
	}
	b, err := policy.Sign(src, key)
	if err != nil {
		return err
	}
	data, err := b.Encode()
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func verifyBundle(path, seedFile string) error {
	key, err := loadKey(seedFile)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := policy.DecodeBundle(data)
	if err != nil {
		return err
	}
	set, err := b.Verify(key.Public().(ed25519.PublicKey))
	if err != nil {
		return err
	}
	fmt.Printf("bundle OK: policy %q version %d, %d rules\n", set.Name, set.Version, len(set.Rules))
	return nil
}
