package bfc_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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

// fieldKeep lists the fields that stay without a reader outside tests, each
// with the reason it stays, named as TestEveryFieldIsRead reports them.
var fieldKeep = map[string]string{
	"internal/nic.Stats.FlowsStarted":         "the conservation term of the per-run invariant check (ROADMAP item 3(a))",
	"internal/nic.Stats.FlowsCompleted":       "the conservation term of the per-run invariant check (ROADMAP item 3(a))",
	"internal/switchsim.Stats.DataPacketsOut": "the conservation term of the per-run invariant check (ROADMAP item 3(a))",
	"internal/packet.Packet.Priority":         "bench/micro.go writes it; it goes with the benchmark change of ROADMAP item 17",
	"internal/eventsim.Scheduler.live":        "the arena and edge tests read it: pending events net of cancellations",
	"internal/eventsim.tierCounts.refillRing": "FuzzQueueOrder's tier coverage and the property tests' tierReach read it",
	"internal/eventsim.tierCounts.refillFar":  "FuzzQueueOrder's tier coverage and the property tests' tierReach read it",
	"internal/eventsim.tierCounts.migrated":   "FuzzQueueOrder's tier coverage and the property tests' tierReach read it",
	"internal/eventsim.tierCounts.sidePops":   "FuzzQueueOrder's tier coverage and the property tests' tierReach read it",
	"bench.yardstick.sink":                    "keeps the yardstick's loads from being optimised away; bench/ changes only with the benchmark",
}

// TestEveryExportHasACaller type-checks the module and the benchmark module
// and fails on an exported top-level name or method that no non-test code
// uses. The Examples in example_test.go count as callers: they are the root
// package's documented use. A method counts as used when its type implements
// an interface of the tree, error, or one of stdInterfaces, that declares it.
func TestEveryExportHasACaller(t *testing.T) {
	c := checkedTree(t)
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

// TestEveryFieldIsRead fails on a struct field of the tree that no non-test
// code reads. A selector reads its field unless it is the operand of an
// assignment or of ++/--; a composite-literal key only writes. The fields of
// a struct compared with == or != or used as a map key are read, and so are
// embedded fields and the exported fields of a JSON wire form: a struct with
// a json tag, or a type passed to one of encoding/json's encoders.
func TestEveryFieldIsRead(t *testing.T) {
	c := checkedTree(t)
	var unread []string
	for _, key := range c.unreadFields() {
		if _, ok := fieldKeep[key]; !ok {
			unread = append(unread, key)
		}
	}
	for key := range fieldKeep {
		if v, ok := c.fields[key]; !ok || c.read[v] {
			t.Errorf("fieldKeep lists %s, which is gone or has a reader: drop the entry", key)
		}
	}
	if len(unread) > 0 {
		t.Errorf("%d fields are written but never read outside tests; delete them or give each a reason in fieldKeep:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// TestFieldCheckerFlagsWriteOnlyShapes runs the field check on
// testdata/writeonly, which holds one field of each shape: only assigned, only
// incremented, only set by a composite-literal key, read through == on its
// struct, and read by a selector. Exactly the first three are unread.
func TestFieldCheckerFlagsWriteOnlyShapes(t *testing.T) {
	c := newSurfaceChecker()
	if _, err := c.check("testdata/writeonly"); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(c.unreadFields(), " ")
	if want := "testdata/writeonly.T.Assigned testdata/writeonly.T.Incremented testdata/writeonly.T.Keyed"; got != want {
		t.Errorf("unread fields = %q, want %q", got, want)
	}
}

var (
	treeOnce sync.Once
	tree     *surfaceChecker
	treeErr  error
)

// checkedTree type-checks the module and bench/ once per test process, for
// both surface tests.
func checkedTree(t *testing.T) *surfaceChecker {
	treeOnce.Do(func() {
		tree = newSurfaceChecker()
		treeErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			_, err = tree.check(path)
			return err
		})
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

type surfaceChecker struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // by directory
	decls  map[string]types.Object   // exported names declared in the tree
	used   map[types.Object]bool
	ifaces []*types.Interface
	fields map[string]*types.Var // fields declared in the tree, "pkg.Type.Field"
	read   map[*types.Var]bool
	wired  map[types.Type]bool // JSON wire forms already marked read
}

func newSurfaceChecker() *surfaceChecker {
	fset := token.NewFileSet()
	return &surfaceChecker{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, decls: map[string]types.Object{}, used: map[types.Object]bool{},
		fields: map[string]*types.Var{}, read: map[*types.Var]bool{}, wired: map[types.Type]bool{},
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
	info := &types.Info{
		Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	if !strings.HasSuffix(path, "_test") {
		c.declareFields(strings.TrimPrefix(strings.TrimPrefix(path, "bfc"), "/"), files, info)
	}
	for _, f := range files {
		c.markReads(f, info)
	}
	return pkg, nil
}

// declareFields records the named fields of the structs files declare (an
// embedded field counts as read, so it is not recorded). A field of a named
// type is "pkg.Type.Field", of a struct nested in its declaration
// "pkg.Type.Outer.Field", and of any other struct "pkg.file:line.Field". A
// struct with a json tag is a wire form.
func (c *surfaceChecker) declareFields(rel string, files []*ast.File, info *types.Info) {
	var name func(prefix string, e ast.Expr)
	name = func(prefix string, e ast.Expr) {
		switch e := e.(type) {
		case *ast.StarExpr:
			name(prefix, e.X)
		case *ast.ArrayType:
			name(prefix, e.Elt)
		case *ast.MapType:
			name(prefix, e.Value)
		case *ast.StructType:
			for _, f := range e.Fields.List {
				for _, id := range f.Names {
					if v, ok := info.Defs[id].(*types.Var); ok && id.Name != "_" {
						c.fields[prefix+"."+id.Name] = v
					}
					name(prefix+"."+id.Name, f.Type)
				}
			}
			if st, ok := info.TypeOf(e).(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
						c.wire(st)
						break
					}
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				name(rel+"."+n.Name.Name, n.Type)
				return false
			case *ast.StructType:
				p := c.fset.Position(n.Pos())
				name(fmt.Sprintf("%s.%s:%d", rel, filepath.Base(p.Filename), p.Line), n)
				return false
			}
			return true
		})
	}
}

// jsonEncoders are encoding/json's functions and methods that read the fields
// of the value they are given.
var jsonEncoders = map[string]bool{"Marshal": true, "MarshalIndent": true, "Encode": true}

// markReads records the fields f reads.
func (c *surfaceChecker) markReads(f *ast.File, info *types.Info) {
	writes := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !writes[n] {
				c.read[s.Obj().(*types.Var).Origin()] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				c.compared(info.TypeOf(n.X))
			}
		case *ast.MapType:
			c.compared(info.TypeOf(n.Key))
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" && jsonEncoders[fn.Name()] {
				for _, arg := range n.Args {
					c.wire(info.TypeOf(arg))
				}
			}
		}
		return true
	})
}

// compared marks read every field a comparison of t's values reads.
func (c *surfaceChecker) compared(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Array:
		c.compared(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.read[u.Field(i).Origin()] = true
			c.compared(u.Field(i).Type())
		}
	}
}

// wire marks read the exported fields encoding/json reads when it encodes a
// value of type t.
func (c *surfaceChecker) wire(t types.Type) {
	if t == nil || c.wired[t] {
		return
	}
	c.wired[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		c.wire(u.Elem())
	case *types.Slice:
		c.wire(u.Elem())
	case *types.Array:
		c.wire(u.Elem())
	case *types.Map:
		c.wire(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() || f.Embedded() {
				c.read[f.Origin()] = true
				c.wire(f.Type())
			}
		}
	}
}

// unreadFields returns the declared fields nothing outside tests reads, sorted.
func (c *surfaceChecker) unreadFields() []string {
	var out []string
	for key, v := range c.fields {
		if !c.read[v] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
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
