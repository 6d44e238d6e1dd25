package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that
// TestExportedSurfaceHasCallers accepts without a non-test caller, each
// with the reason it stays. Keys are "pkg.Name" or "pkg.Recv.Name", pkg
// being the path below internal/.
var surfaceAllowlist = map[string]string{
	// Paper-figure and ablation benchmarks in the root bench_test.go.
	"canbus.EncodeBits": "BenchmarkFig3FrameCodec encodes the Fig. 3 bit stream",
	"canbus.DecodeBits": "BenchmarkFig3FrameCodec decodes the Fig. 3 bit stream",
	"mac.WithAVC":       "BenchmarkAblationAVCCache turns the AVC cache off",

	// Report and wire contract.
	"canbus.Bus.Detach": "only writer of AbortedTx, which fleet reports render as aborted= and the wire carries",

	// ROADMAP direction 3 (RemoteDiag entered through the mode manager).
	"car.NewModeManager":      "ROADMAP direction 3 drives RemoteDiag through it",
	"car.ModeManager.Request": "ROADMAP direction 3 drives RemoteDiag through it",
	"car.ModeManager.Log":     "ROADMAP direction 3 drives RemoteDiag through it",
	"core.NewDiagAuthorizer":  "ROADMAP direction 3 authorises RemoteDiag with it",
	"core.OEM.IssueDiagToken": "ROADMAP direction 3 authorises RemoteDiag with it",

	// ROADMAP direction 8 (telemetry sink and rule provenance).
	"hpe.NewAuditor":           "ROADMAP direction 8 feeds the telemetry sink from it",
	"hpe.Auditor.Drain":        "ROADMAP direction 8 feeds the telemetry sink from it",
	"hpe.Auditor.Len":          "ROADMAP direction 8 feeds the telemetry sink from it",
	"hpe.Engine.AttachAuditor": "ROADMAP direction 8 feeds the telemetry sink from it",

	// ROADMAP direction 5 books rejected bundles in the store's stats.
	"policy.Store.Stats": "ROADMAP direction 5 counts rejected bundles there",

	// The §V-B.1 SELinux-style MAC model.
	"mac.WithMode":          "§V-B.1 SELinux model: enforcing/permissive mode",
	"mac.WithAVCCapacity":   "§V-B.1 SELinux model: AVC size",
	"mac.WithAuditCapacity": "§V-B.1 SELinux model: audit log size",
	"mac.Server.Mode":       "§V-B.1 SELinux model: enforcing/permissive mode",
	"mac.Server.SetMode":    "§V-B.1 SELinux model: enforcing/permissive mode",
	"mac.Server.Unload":     "§V-B.1 SELinux model: module unload",
	"mac.Server.Audit":      "§V-B.1 SELinux model: audit log",
	"mac.Server.Stats":      "§V-B.1 SELinux model: AVC statistics",

	// Round-trip oracles for the Table I renderers (CI's FuzzParse steps).
	"dread.Parse":  "CI's FuzzParse holds the Table I DREAD renderer to it",
	"stride.Parse": "CI's FuzzParse holds the Table I STRIDE renderer to it",

	// The test-support package.
	"policy/difftest.Check":             "test-support package",
	"policy/difftest.CheckCompileError": "test-support package",
	"policy/difftest.GenPolicy":         "test-support package",
}

// TestExportedSurfaceHasCallers fails when an exported identifier declared
// in a non-test file under internal/ has no caller in a non-test file of
// this module or of the benchmark module, unless surfaceAllowlist names
// it. A method also counts as called when its receiver satisfies an
// interface one of the modules declares or writes, or one of the standard
// interfaces fmt and encoding call through. The scan is the standard
// library's go/types over `go list -deps` of both modules.
func TestExportedSurfaceHasCallers(t *testing.T) {
	pkgs := listPackages(t, ".", "benchmark")
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var internal []*types.Package
	var literals []*ast.InterfaceType
	for _, lp := range pkgs {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					literals = append(literals, it)
				}
				return true
			})
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = p
		if strings.HasPrefix(lp.ImportPath, "repro/internal/") {
			internal = append(internal, p)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		used[obj] = true
	}
	ifaces := stdInterfaces()
	for _, lit := range literals {
		if it := info.Types[lit].Type.(*types.Interface); it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}

	found := map[string]bool{}
	var failures []string
	check := func(key string, obj types.Object, called bool) {
		found[key] = true
		_, allowed := surfaceAllowlist[key]
		switch {
		case !called && !allowed:
			failures = append(failures, fmt.Sprintf("%s (%s): no non-test caller", key, fset.Position(obj.Pos())))
		case called && allowed:
			failures = append(failures, fmt.Sprintf("%s (%s): allowlisted but has a caller", key, fset.Position(obj.Pos())))
		}
	}
	for _, p := range internal {
		rel := strings.TrimPrefix(p.Path(), "repro/internal/")
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(rel+"."+name, obj, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					check(rel+"."+name+"."+m.Name(), m, used[m] || satisfies(named, m.Name(), ifaces))
				}
			}
		}
	}
	for key := range surfaceAllowlist {
		if !found[key] {
			failures = append(failures, key+": allowlisted but not declared")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// listPackages returns the non-standard packages of every module rooted at
// dirs, dependencies before their importers, each once.
func listPackages(t *testing.T, dirs ...string) []listedPackage {
	t.Helper()
	seen := map[string]bool{}
	var out []listedPackage
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(stdout))
		for {
			var lp listedPackage
			if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if lp.Standard || seen[lp.ImportPath] {
				continue
			}
			seen[lp.ImportPath] = true
			out = append(out, lp)
		}
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdInterfaces are the standard interfaces through which fmt, errors and
// the encoding packages call a value's methods.
func stdInterfaces() []*types.Interface {
	var out []*types.Interface
	for _, src := range []string{
		"interface{ Error() string }",
		"interface{ String() string }",
		"interface{ Unwrap() error }",
		"interface{ MarshalJSON() ([]byte, error) }",
		"interface{ UnmarshalJSON([]byte) error }",
		"interface{ MarshalText() ([]byte, error) }",
		"interface{ UnmarshalText([]byte) error }",
		"interface{ MarshalBinary() ([]byte, error) }",
		"interface{ UnmarshalBinary([]byte) error }",
	} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		out = append(out, tv.Type.Underlying().(*types.Interface))
	}
	return out
}

// satisfies reports whether named or *named implements an interface in
// ifaces that has a method called name.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
