package ftpn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyProductionCode fails when a top-level declaration under
// internal/ (function, method, type, variable or constant, test files
// excluded) is reachable only from its own package's tests. Liveness is
// by name, which over-approximates reachability: a declaration is live
// when a live declaration mentions its name anywhere. The roots are
// every declaration of a package main (cmd/, examples/, bench/, their
// tests included), of the root package (its tests included), every init
// function, and every method whose name an interface declares (an
// interface in this repository or a standard one a value may be handed
// to, such as fmt.Stringer or sort.Interface).
//
// testOnlyKept lists the declarations kept on purpose although only
// tests call them; every entry carries its reason.
func TestNoTestOnlyProductionCode(t *testing.T) {
	decls, roots := parseRepo(t)
	if len(decls) == 0 {
		t.Fatal("no declarations found under internal/")
	}
	live := map[string]bool{}
	var queue []string
	mark := func(names map[string]bool) {
		for n := range names {
			if !live[n] {
				live[n] = true
				queue = append(queue, n)
			}
		}
	}
	mark(roots)
	byName := map[string][]*liveDecl{}
	for _, d := range decls {
		byName[d.name] = append(byName[d.name], d)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, d := range byName[n] {
			mark(d.refs)
		}
	}

	var dead []string
	used := map[string]bool{}
	for _, d := range decls {
		if live[d.name] {
			continue
		}
		if p := keptPattern(d.id); p != "" {
			used[p] = true
			continue
		}
		dead = append(dead, d.id+" ("+d.pos+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s: delete it, move it into its test, or list it in testOnlyKept with a reason", d)
	}
	for p := range testOnlyKept {
		if !used[p] {
			t.Errorf("testOnlyKept entry %q matches no test-only declaration; drop it", p)
		}
	}
}

// testOnlyKept maps a declaration ("pkgdir.Name", "pkgdir.Type.Method";
// a trailing * matches a prefix) to the reason it stays although only
// its package's tests call it.
var testOnlyKept = map[string]string{
	"codec/mjpeg.fdct":             "reference oracle: the naive DCT the fast transform is tested against",
	"rtc.Dense*":                   "reference oracles: the dense seed solvers the breakpoint solvers are tested against",
	"crt.NewLockedFIFO":            "reference oracle: the locked FIFO the lock-free fast path is tested against",
	"rtc.MaxDetectionBound":        "eq. 7: the worst-case detection bound over both replicas",
	"crt.Replicator.Lost":          "state accessor: tokens lost with every replica convicted",
	"crt.Selector.ResyncDrops":     "state accessor: stale tokens an interface dropped while re-synchronizing",
	"des.Kernel.Blocked":           "state accessor: processes parked on a signal",
	"des.Kernel.NumProcs":          "state accessor: live processes",
	"des.Signal.NumWaiters":        "state accessor: processes parked on the signal",
	"exp.SizingCacheStats":         "state accessor: SizingFor cache hits and misses",
	"fault.Switch.Injections":      "state accessor: the inject/repair history",
	"ft.MKPolicy.MK":               "state accessor: the policy's (m,k) parameters",
	"ft.ReplicatorState.Lost":      "state accessor: tokens lost with every replica convicted",
	"ft.SelectorState.ResyncDrops": "state accessor: stale tokens an interface dropped while re-synchronizing",
	"ft.detector.NumFaulty":        "state accessor: replicas currently convicted",
	"kpn.PayloadMemo.Lookup":       "state accessor: the cached golden payload of a stage output",
	"rtc.StepCurve.NumBreakpoints": "state accessor: the curve's breakpoint count",
	"trace.Arrivals.Times":         "state accessor: the recorded arrival instants",
}

// keptPattern returns the testOnlyKept key matching id, or "".
func keptPattern(id string) string {
	if _, ok := testOnlyKept[id]; ok {
		return id
	}
	for p := range testOnlyKept {
		if strings.HasSuffix(p, "*") && strings.HasPrefix(id, strings.TrimSuffix(p, "*")) {
			return p
		}
	}
	return ""
}

// liveDecl is one top-level declaration under internal/.
type liveDecl struct {
	id   string // "pkgdir.Name" or "pkgdir.Type.Method"
	name string // the name references resolve to
	pos  string
	refs map[string]bool
}

// stdInterfaceMethods are methods the standard library calls through an
// interface without the caller naming them.
var stdInterfaceMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap",
	"Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Read", "Write", "Close",
}

// parseRepo parses every Go file of the repository and returns the
// declarations under internal/ (test files excluded) and the names the
// roots mention.
func parseRepo(t *testing.T) (decls []*liveDecl, roots map[string]bool) {
	t.Helper()
	roots = map[string]bool{"init": true, "main": true}
	for _, m := range stdInterfaceMethods {
		roots[m] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		isTest := strings.HasSuffix(path, "_test.go")
		// Interface methods declared anywhere are implicit roots.
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						roots[name.Name] = true
					}
				}
			}
			return true
		})
		switch {
		case !internal && (f.Name.Name == "main" || dir == "."):
			collectRefs(f, roots)
		case internal && !isTest:
			decls = append(decls, fileDecls(fset, f, strings.TrimPrefix(dir, "internal/"))...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, roots
}

// fileDecls returns the top-level declarations of one file; blank
// declarations (var _ I = T{}) are skipped.
func fileDecls(fset *token.FileSet, f *ast.File, pkg string) []*liveDecl {
	var out []*liveDecl
	add := func(name, id string, node ast.Node) {
		if name == "_" {
			return
		}
		refs := map[string]bool{}
		collectRefs(node, refs)
		p := fset.Position(node.Pos())
		out = append(out, &liveDecl{id: pkg + "." + id, name: name, pos: filepath.Base(p.Filename), refs: refs})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			id := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				id = recvName(d.Recv.List[0].Type) + "." + id
			}
			add(d.Name.Name, id, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name.Name, s.Name.Name, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n.Name, n.Name, s)
					}
				}
			}
		}
	}
	return out
}

// recvName returns a method receiver's base type name.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// collectRefs adds every identifier n mentions to refs.
func collectRefs(n ast.Node, refs map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			refs[id.Name] = true
		}
		return true
	})
}
