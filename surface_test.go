package bfc_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKeep lists the exported names that stay without a caller outside
// tests, each with the reason it stays. A name is "pkg.Name" or
// "pkg.Type.Method", pkg relative to the module ("" is the root package).
var surfaceKeep = map[string]string{
	"internal/core.Engine.ActiveFlows":      "compared against the slow reference BFC (ROADMAP item 4)",
	"internal/core.Engine.QueueBytes":       "compared against the slow reference BFC (ROADMAP item 4)",
	"internal/core.Engine.PauseThreshold":   "compared against the slow reference BFC (ROADMAP item 4)",
	"internal/core.Engine.FlowPaused":       "compared against the slow reference BFC (ROADMAP item 4)",
	"internal/core.Engine.Config":           "TestHopRTTIsLocal reads the HRTT and tau a switch derived",
	"internal/flowtable.Table.Check":        "the flow-table term of the per-run invariant check (ROADMAP item 3(a))",
	"internal/topology.Topology.EgressPort": "routes the flow-level reference model like the simulator (ROADMAP item 6)",
}

// TestEveryExportHasACaller type-checks the module and the benchmark module
// and fails on an exported top-level name or method that no non-test code
// uses. The Examples in example_test.go count as callers: they are the root
// package's documented use. A method counts as used when its type implements
// an interface of the tree, error, or one of stdInterfaces, that declares it.
func TestEveryExportHasACaller(t *testing.T) {
	c := newSurfaceChecker()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = c.check(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, key := range c.unused(t) {
		if _, ok := surfaceKeep[key]; !ok {
			unused = append(unused, key)
		}
	}
	for key := range surfaceKeep {
		if _, ok := c.decls[key]; !ok || c.used[c.decls[key]] {
			t.Errorf("surfaceKeep lists %s, which is gone or has a caller: drop the entry", key)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported names have no caller outside tests; delete them or give each a reason in surfaceKeep:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

type surfaceChecker struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // by directory
	decls  map[string]types.Object   // exported names declared in the tree
	used   map[types.Object]bool
	ifaces []*types.Interface
}

func newSurfaceChecker() *surfaceChecker {
	fset := token.NewFileSet()
	return &surfaceChecker{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, decls: map[string]types.Object{}, used: map[types.Object]bool{},
	}
}

// Import resolves the module's packages by directory (bench/ replaces bfc
// with the root) and everything else from the standard library's source.
func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	if path == "bfc" || strings.HasPrefix(path, "bfc/") {
		return c.check(strings.TrimPrefix(strings.TrimPrefix(path, "bfc"), "/"))
	}
	return c.std.Import(path)
}

// check type-checks the package in dir once: its non-test files, and the root
// package's example_test.go as a caller of the root package. It returns nil
// for a directory without Go files.
func (c *surfaceChecker) check(dir string) (*types.Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := c.pkgs[dir]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, examples []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !(dir == "." && name == "example_test.go") {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if isTest {
			examples = append(examples, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		c.pkgs[dir] = nil
		return nil, nil
	}
	rel, path := "", "bfc"
	if dir != "." {
		rel = filepath.ToSlash(dir)
		path += "/" + rel
	}
	pkg, err := c.typeCheck(path, files)
	if err != nil {
		return nil, err
	}
	c.pkgs[dir] = pkg
	c.declare(rel, pkg)
	if len(examples) > 0 {
		if _, err := c.typeCheck(path+"_test", examples); err != nil {
			return nil, err
		}
	}
	return pkg, nil
}

func (c *surfaceChecker) typeCheck(path string, files []*ast.File) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		c.used[obj] = true
	}
	return pkg, nil
}

// declare records pkg's exported top-level names and the exported methods of
// its named types, and its interfaces.
func (c *surfaceChecker) declare(rel string, pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			c.decls[rel+"."+name] = obj
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if iface, ok := named.Underlying().(*types.Interface); ok {
			c.ifaces = append(c.ifaces, iface)
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				c.decls[rel+"."+name+"."+m.Name()] = m
			}
		}
	}
}

// stdInterfaces are the standard interfaces a tree type satisfies for code
// outside the tree to call.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"net/http", "ResponseWriter"}, {"net/http", "Flusher"},
}

// unused returns the declared names nothing outside tests uses, sorted.
func (c *surfaceChecker) unused(t *testing.T) []string {
	ifaces := append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, s := range stdInterfaces {
		pkg, err := c.std.Import(s.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	var out []string
	for key, obj := range c.decls {
		if c.used[obj] || satisfies(obj, ifaces) {
			continue
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// satisfies reports whether obj is a method its receiver needs to implement
// one of ifaces.
func satisfies(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t) // its method set holds t's as well
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}
