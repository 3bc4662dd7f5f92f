package wlanmcast_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow lists the exported declarations under internal/ that no
// production file references but that stay exported on purpose. The
// key is "pkg.Name" or "pkg.Type.Method", pkg being the directory
// under internal/. The value is either "tests: <dir>", naming another
// package whose tests use it (the scan checks that they still do), or
// "interface: <iface>" for a method reached only through a
// standard-library interface.
var surfaceAllow = map[string]string{
	"fault.Schedule.DownAt":         "tests: internal/netsim",
	"metrics.Figure.Improvement":    "tests: internal/experiments",
	"obs.Disabled":                  "tests: internal/engine",
	"obs.HistogramVec.With":         "tests: cmd/loadgen",
	"obs.LintProm":                  "tests: cmd/assocd",
	"obs.ReadJSONL":                 "tests: cmd/assocd",
	"obs.Registry.Families":         "tests: cmd/assocd",
	"obs.Ring.CountsByType":         "tests: internal/engine",
	"wal.EncodeFrame":               "tests: cmd/assocd",
	"wlan.Assoc.MarshalJSON":        "interface: encoding/json.Marshaler",
	"wlan.Assoc.UnmarshalJSON":      "interface: encoding/json.Unmarshaler",
	"wlan.MultiAssoc.MarshalJSON":   "interface: encoding/json.Marshaler",
	"wlan.MultiAssoc.UnmarshalJSON": "interface: encoding/json.Unmarshaler",
	"wlan.MultiAssoc.RemoveHome":    "tests: internal/engine",
	"wlan.Network.AggregateRate":    "tests: internal/engine",
	"wlan.Network.FullyAssociated":  "tests: internal/core",
	"wlan.Network.LoadVector":       "tests: internal/core",
	"wlan.Network.NumLinks":         "tests: internal/scenario",
	"wlan.Network.RateSet":          "tests: internal/scenario",
	"wlan.NewGeometricDense":        "tests: internal/scenario",
}

// The daemon and loadgen must not link the LP and ILP solvers, which
// only the Figure 12 optima (internal/optimal) use.
var (
	lpFree   = []string{"cmd/assocd", "cmd/loadgen"}
	lpBanned = []string{"internal/lp", "internal/ilp"}
)

// TestProductionSurface fails when an exported identifier under
// internal/ has no production reference and no allowlist entry, when
// an allowlist entry is stale, or when the daemon or loadgen imports
// the LP or ILP solver.
func TestProductionSurface(t *testing.T) {
	problems, err := scanSurface(".", surfaceAllow, lpFree, lpBanned)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestProductionSurfaceFails runs the scan over testdata/surface, a
// small module that breaks each rule once and keeps one allowlisted
// helper correctly.
func TestProductionSurfaceFails(t *testing.T) {
	allow := map[string]string{
		"kept.Helper": "tests: internal/user",
		"kept.Gone":   "tests: internal/user",
		"kept.Used":   "tests: internal/user",
	}
	problems, err := scanSurface("testdata/surface", allow, []string{"cmd/tool"}, []string{"internal/lp"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/kept.Dead: exported, but nothing outside tests references it",
		"allowlist: kept.Gone is not declared",
		"allowlist: kept.Used is referenced by production code",
		"cmd/tool imports internal/lp (cmd/tool -> internal/solve -> internal/lp)",
	}
	if !slices.Equal(problems, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// goPkg is one directory's parsed Go files.
type goPkg struct {
	name        string
	files, test []*ast.File
}

// scanSurface parses every Go file under root (nested modules such as
// bench/ included, testdata excluded) and returns one line per
// violation of the rules TestProductionSurface states. roots are the
// program directories that must not import any of banned.
func scanSurface(root string, allow map[string]string, roots, banned []string) ([]string, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string]*goPkg{} // by slash-separated directory relative to root
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		dir := filepath.ToSlash(rel)
		pkg := pkgs[dir]
		if pkg == nil {
			pkg = &goPkg{}
			pkgs[dir] = pkg
		}
		if strings.HasSuffix(p, "_test.go") {
			pkg.test = append(pkg.test, f)
		} else {
			pkg.name = f.Name.Name
			pkg.files = append(pkg.files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirOf := func(importPath string) (string, bool) {
		return strings.CutPrefix(importPath, mod+"/")
	}

	prod := map[string]bool{}
	tests := map[string]map[string]bool{} // by directory
	imports := map[string][]string{}
	for dir, pkg := range pkgs {
		for _, f := range pkg.files {
			refs(f, dir, pkgs, dirOf, prod)
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if d, ok := dirOf(p); ok {
					imports[dir] = append(imports[dir], d)
				}
			}
		}
		tests[dir] = map[string]bool{}
		for _, f := range pkg.test {
			refs(f, dir, pkgs, dirOf, tests[dir])
		}
	}

	var problems []string
	declared := map[string]bool{}
	for _, dir := range sortedKeys(pkgs) {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkgs[dir].files {
			for _, name := range exported(f) {
				key := strings.TrimPrefix(dir, "internal/") + "." + name
				declared[key] = true
				if _, ok := allow[key]; !ok && !used(prod, dir, name) {
					problems = append(problems, dir+"."+name+": exported, but nothing outside tests references it")
				}
			}
		}
	}
	for _, key := range sortedKeys(allow) {
		pkg, name, _ := strings.Cut(key, ".")
		dir := "internal/" + pkg
		reason := allow[key]
		user, byTests := strings.CutPrefix(reason, "tests: ")
		switch {
		case !declared[key]:
			problems = append(problems, "allowlist: "+key+" is not declared")
		case used(prod, dir, name):
			problems = append(problems, "allowlist: "+key+" is referenced by production code")
		case byTests && (user == dir || !used(tests[user], dir, name)):
			problems = append(problems, "allowlist: "+key+": the tests of "+user+" do not use it")
		case !byTests && !strings.HasPrefix(reason, "interface: "):
			problems = append(problems, "allowlist: "+key+": reason must be \"tests: <dir>\" or \"interface: <iface>\"")
		}
	}

	for _, from := range roots {
		for _, chain := range reach(imports, from, banned) {
			problems = append(problems, fmt.Sprintf("%s imports %s (%s)", from, chain[len(chain)-1], strings.Join(chain, " -> ")))
		}
	}
	return problems, nil
}

// refs records the identifiers f uses into out: "dir.Name" for a
// package-level identifier of the package in dir, ".Name" for any
// selector or composite-literal key (how methods are matched: by name,
// whatever the receiver).
func refs(f *ast.File, dir string, pkgs map[string]*goPkg, dirOf func(string) (string, bool), out map[string]bool) {
	local := map[string]string{} // import name -> dir
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		d, ok := dirOf(p)
		if !ok || pkgs[d] == nil {
			continue
		}
		name := pkgs[d].name
		if spec.Name != nil {
			name = spec.Name.Name
		}
		local[name] = d
	}
	skip := map[*ast.Ident]bool{} // declaring and selected identifiers
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if d, ok := local[x.Name]; ok {
					out[d+"."+n.Sel.Name] = true
					return false
				}
			}
			out["."+n.Sel.Name] = true
			skip[n.Sel] = true
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				out["."+k.Name] = true
			}
		case *ast.Ident:
			if !skip[n] {
				out[dir+"."+n.Name] = true
			}
		}
		return true
	})
}

// exported lists f's exported top-level declarations: "Name" for
// functions, types, variables and constants, "Type.Method" for the
// methods of exported types.
func exported(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				names = append(names, d.Name.Name)
				continue
			}
			typ := d.Recv.List[0].Type
			if s, ok := typ.(*ast.StarExpr); ok {
				typ = s.X
			}
			if g, ok := typ.(*ast.IndexExpr); ok {
				typ = g.X
			}
			// A method of an unexported type is reachable only through
			// an interface.
			if recv := typ.(*ast.Ident); recv.IsExported() {
				names = append(names, recv.Name+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// used reports whether refs holds a use of name, declared in dir. A
// method counts as used when any selector names it.
func used(refs map[string]bool, dir, name string) bool {
	if _, method, ok := strings.Cut(name, "."); ok {
		return refs["."+method]
	}
	return refs[dir+"."+name]
}

// reach returns, for each banned directory that from imports directly
// or transitively, the shortest import chain that reaches it.
func reach(imports map[string][]string, from string, banned []string) [][]string {
	prev := map[string]string{from: ""}
	queue := []string{from}
	var chains [][]string
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if slices.Contains(banned, d) {
			chain := []string{d}
			for p := prev[d]; p != ""; p = prev[p] {
				chain = append([]string{p}, chain...)
			}
			chains = append(chains, chain)
		}
		for _, next := range imports[d] {
			if _, seen := prev[next]; !seen {
				prev[next] = d
				queue = append(queue, next)
			}
		}
	}
	return chains
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
