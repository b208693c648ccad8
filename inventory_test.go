package repro_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability inventory: every top-level declaration and every method
// of the wrapper packages (internal/** and race/{server,fleet}),
// exported or not, must be reachable from somebody who is not a test — a
// cmd/ or examples/ main, the public race and race/sync API (with the
// methods of every type that API names or hands out, aliased ones such as
// race.Builder included), or whatever benchmark/*.go uses — or sit in
// inventoryAllow beside the reason it is kept. What only tests reach is
// deleted, or asserted through something reachable.
//
// Reading a failure: "store.Log.Dir unreachable" names a declaration that no
// root reaches through non-test code. Delete it (and the test-only callers),
// or — for a reference implementation, a trace generator, a fault model or
// a fake's control that exists for tests — add a row with one of the reasons
// below.
// "allow-list row X indicts nothing" means the row's declaration is gone or
// has become reachable: delete the row.

// keep is why an unreachable declaration stays. There is no kind for
// what benchmark/ledger.go pins (the whole-payload wire codec, until ROADMAP
// item 1): the benchmark's uses are roots, so those are reachable.
type keep string

const (
	keepReference keep = "reference the differential tests compare against"
	keepFake      keep = "a test's control over a fake"
	keepGenerator keep = "a generator the differential tests draw traces from"
)

// allowRow names an identifier as a failure prints it, or a prefix of one
// ending at a dot boundary ("oracle" covers the package, "fault.CrashFS" the
// type and its methods).
type allowRow struct {
	id     string
	reason keep
}

var inventoryAllow = []allowRow{
	{"oracle", keepReference},
	{"fault.CrashFS", keepReference},
	{"fault.NewCrashFS", keepReference},
	// The recorded edge list is what grouped ≡ standalone, engine ≡ batch and
	// the rule (b) reference differentials compare, edge for edge.
	{"graph.Graph.Edges", keepReference},
	// The exposition parser the metrics tests read /metrics back with;
	// Family.Histogram reaches Sample.Label, ParseText the Sample type.
	{"obs.ParseText", keepReference},
	{"obs.Family", keepReference},
	// Random and channel-heavy streams beside the ten programs.
	{"workload.Random", keepGenerator},
	{"workload.Channels", keepGenerator},
	{"fleet.Local.Kill", keepFake},
	{"fleet.Local.Server", keepFake},
}

const modulePath = "repro"

func TestReachabilityInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	inv := loadInventory(t)
	for _, msg := range inv.check(inventoryAllow) {
		t.Error(msg)
	}

	// Mutation checks: the test must notice what it exists to notice.
	t.Run("unused export is indicted", func(t *testing.T) {
		mut := inv.withFile(t, "internal/wire", "zz_mutation.go",
			"package wire\n\n// MutationProbe is reached by nothing.\nfunc MutationProbe() {}\n")
		if got := mut.check(inventoryAllow); len(got) != 1 || !strings.HasPrefix(got[0], "wire.MutationProbe unreachable") {
			t.Errorf("adding an unused exported func to internal/wire: got %q", got)
		}
	})
	t.Run("every allow-list row is needed", func(t *testing.T) {
		for i, row := range inventoryAllow {
			rest := append(append(inventoryAllow[:0:0], inventoryAllow[:i]...), inventoryAllow[i+1:]...)
			got := inv.check(rest)
			if len(got) == 0 || !strings.HasPrefix(got[0], row.id) {
				t.Errorf("deleting row %q: got %q, want its declarations indicted", row.id, got)
			}
		}
	})
}

// invPkg is one package of the module, parsed without its tests.
type invPkg struct {
	path  string // import path
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// inventory is the type-checked module plus the benchmark package.
type inventory struct {
	fset   *token.FileSet
	pkgs   map[string]*invPkg
	stdlib types.Importer
	// unnamed holds interfaces the standard library tests values against
	// without naming them.
	unnamed []types.Type
}

// errorsProbes are the interface literals inside errors.Is, As and Unwrap.
const errorsProbes = `package p
type (
	a interface{ Unwrap() error }
	b interface{ Unwrap() []error }
	c interface{ Is(error) bool }
	d interface{ As(any) bool }
)`

// audited reports whether declarations of the package are held to the rule.
func audited(path string) bool {
	rel := strings.TrimPrefix(path, modulePath+"/")
	return strings.HasPrefix(rel, "internal/") ||
		rel == "race/server" || rel == "race/fleet"
}

// rootPackage reports whether everything the package declares is a root:
// the mains, and the benchmark (whatever its files use is in use).
func rootPackage(p *invPkg) bool {
	return p.types.Name() == "main"
}

// publicAPI reports whether the package's exported names are roots.
func publicAPI(path string) bool {
	return path == modulePath+"/race" || path == modulePath+"/race/sync"
}

func loadInventory(t *testing.T) *inventory {
	t.Helper()
	inv := &inventory{fset: token.NewFileSet(), pkgs: make(map[string]*invPkg)}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		return inv.parseDir(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	inv.stdlib = stdlibImporter(t, inv)
	probes, err := parser.ParseFile(inv.fset, "probes.go", errorsProbes, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := new(types.Config).Check("p", inv.fset, []*ast.File{probes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pp.Scope().Names() {
		inv.unnamed = append(inv.unnamed, pp.Scope().Lookup(name).Type())
	}
	for _, p := range inv.pkgs {
		if _, err := inv.Import(p.path); err != nil {
			t.Fatal(err)
		}
	}
	return inv
}

// parseDir adds the directory's non-test package, if it has one. The
// benchmark module's directory is the one place tests count: its package is
// a root, and what its tests call is pinned as much as what its main does.
func (inv *inventory) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &invPkg{path: filepath.ToSlash(filepath.Join(modulePath, dir)), dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			(strings.HasSuffix(name, "_test.go") && dir != "benchmark") {
			continue
		}
		f, err := parser.ParseFile(inv.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		p.files = append(p.files, f)
	}
	if len(p.files) > 0 {
		inv.pkgs[p.path] = p
	}
	return nil
}

// stdlibImporter reads the standard library from the export data of the
// build cache: one `go list` for every standard package the module's files
// import.
func stdlibImporter(t *testing.T, inv *inventory) types.Importer {
	t.Helper()
	seen := make(map[string]bool)
	for _, p := range inv.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); !strings.HasPrefix(path, modulePath+"/") {
					seen[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range seen {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			export[path] = file
		}
	}
	return importer.ForCompiler(inv.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

// Import type-checks a package of the module from source (once), and reads
// any other from export data.
func (inv *inventory) Import(path string) (*types.Package, error) {
	p, ok := inv.pkgs[path]
	if !ok {
		return inv.stdlib.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	var err error
	p.types, err = (&types.Config{Importer: inv}).Check(path, inv.fset, p.files, p.info)
	return p.types, err
}

// withFile returns a copy of the inventory in which one package has one
// more file; only that package is checked again.
func (inv *inventory) withFile(t *testing.T, dir, name, src string) *inventory {
	t.Helper()
	f, err := parser.ParseFile(inv.fset, filepath.Join(dir, name), src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	mut := &inventory{fset: inv.fset, pkgs: make(map[string]*invPkg), stdlib: inv.stdlib, unnamed: inv.unnamed}
	for path, p := range inv.pkgs {
		mut.pkgs[path] = p
	}
	old := inv.pkgs[modulePath+"/"+dir]
	mut.pkgs[old.path] = &invPkg{path: old.path, dir: old.dir, files: append(old.files[:len(old.files):len(old.files)], f)}
	if _, err := mut.Import(old.path); err != nil {
		t.Fatal(err)
	}
	return mut
}

// declID names a package-level object or a method the way failures print
// it: pkg.Name or pkg.Type.Method, pkg being the last path element. Objects
// are compared by this name, not by identity, so that a package checked
// twice (withFile) still meets its importers' references.
func declID(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath) {
		return ""
	}
	pkg := obj.Pkg().Path()[strings.LastIndex(obj.Pkg().Path(), "/")+1:]
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return "" // a method of an interface literal
			}
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // local, field, or parameter
	}
	return pkg + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// check returns one message per audited declaration that no root reaches and
// no allow row covers, then one per row that covers nothing, sorted. What an
// allowed declaration uses is kept with it: the second flood starts from
// the covered ones as well.
func (inv *inventory) check(allow []allowRow) []string {
	g := inv.reach(nil)
	var kept []string
	used := make([]bool, len(allow))
	for id, d := range g.decls {
		if !d.audited || g.reached[id] {
			continue
		}
		for i, row := range allow {
			if id == row.id || strings.HasPrefix(id, row.id+".") {
				kept, used[i] = append(kept, id), true
			}
		}
	}
	g = inv.reach(kept)
	var out []string
	for id, d := range g.decls {
		if d.audited && !g.reached[id] {
			out = append(out, fmt.Sprintf("%s unreachable from cmd/, examples/, the race API and benchmark/ (%s)", id, d.pos))
		}
	}
	for i, row := range allow {
		if !used[i] {
			out = append(out, fmt.Sprintf("allow-list row %s indicts nothing", row.id))
		}
	}
	sort.Strings(out)
	return out
}

// decl is one node of the reachability graph.
type decl struct {
	audited bool
	pos     string
	uses    []string     // declarations its body or type mentions
	typ     *types.Named // set for a type declaration
}

type reachGraph struct {
	decls   map[string]*decl
	reached map[string]bool
}

// reach builds the graph and floods it from the roots. Two rules go beyond
// "a reached declaration reaches what it mentions": a method is reached
// through an interface when its type is reached, the type implements the
// interface, and the interface method is itself reached (any interface the
// module did not declare counts as reached: fmt.Stringer, io.Reader,
// http.Handler call their methods where we cannot see); and a type the
// public API names has all its exported methods reached, as do the types
// those methods and its exported fields mention.
func (inv *inventory) reach(kept []string) *reachGraph {
	g := &reachGraph{decls: make(map[string]*decl), reached: make(map[string]bool)}
	roots := kept
	var ifaces []*types.Interface // interfaces the module did not declare by name
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, it := range inv.unnamed {
		addIface(it)
	}
	seenPkg := make(map[*types.Package]bool)
	var foreign func(p *types.Package)
	foreign = func(p *types.Package) {
		if seenPkg[p] || strings.HasPrefix(p.Path(), modulePath) {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			foreign(imp)
		}
	}

	for _, p := range inv.pkgs {
		for _, imp := range p.types.Imports() {
			foreign(imp)
		}
		for e, tv := range p.info.Types {
			if _, lit := e.(*ast.InterfaceType); lit && tv.IsType() {
				addIface(tv.Type)
			}
		}
		isRoot := rootPackage(p)
		for _, f := range p.files {
			for _, d := range f.Decls {
				for id, node := range inv.declsOf(p, d) {
					node.audited = audited(p.path)
					g.decls[id] = node
					if isRoot || id == "" {
						roots = append(roots, node.uses...)
					}
				}
			}
		}
		if publicAPI(p.path) {
			for _, name := range p.types.Scope().Names() {
				if obj := p.types.Scope().Lookup(name); obj.Exported() {
					roots = append(roots, declID(obj))
					roots = append(roots, exposed(obj.Type(), make(map[types.Type]bool))...)
				}
			}
		}
	}
	delete(g.decls, "")

	var work []string
	mark := func(id string) {
		if d := g.decls[id]; d != nil && !g.reached[id] {
			g.reached[id] = true
			work = append(work, id)
		}
	}
	for _, id := range roots {
		mark(id)
	}
	var concrete []types.Type  // pointers to the reached non-interface types
	var own []*types.Interface // the reached interfaces the module declares
	for {
		for len(work) > 0 {
			d := g.decls[work[len(work)-1]]
			work = work[:len(work)-1]
			for _, id := range d.uses {
				mark(id)
			}
			switch {
			case d.typ == nil || d.typ.TypeParams().Len() > 0:
			case types.IsInterface(d.typ):
				own = append(own, d.typ.Underlying().(*types.Interface))
			default:
				ptr := types.NewPointer(d.typ)
				concrete = append(concrete, ptr)
				for _, it := range ifaces {
					if types.Implements(ptr, it) {
						for i := 0; i < it.NumMethods(); i++ {
							mark(methodID(ptr, it.Method(i)))
						}
					}
				}
			}
		}
		// The module's own interfaces, to a fixed point: a method reached
		// here may call another interface method, or name another type.
		for _, ptr := range concrete {
			for _, it := range own {
				if it.NumMethods() == 0 || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if g.reached[declID(it.Method(i))] {
						mark(methodID(ptr, it.Method(i)))
					}
				}
			}
		}
		if len(work) == 0 {
			return g
		}
	}
}

// methodID is the declaration that answers m on a value of type t.
func methodID(t types.Type, m *types.Func) string {
	obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
	return declID(obj)
}

// exposed lists the exported methods of every module type reachable from t
// through signatures and exported fields: what a caller outside the module
// can invoke once the public API has handed it a t.
func exposed(t types.Type, seen map[types.Type]bool) []string {
	t = types.Unalias(t)
	if seen[t] {
		return nil
	}
	seen[t] = true
	var out []string
	switch t := t.(type) {
	case *types.Named:
		if declID(t.Obj()) == "" {
			return nil
		}
		out = append(out, declID(t.Obj()))
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				out = append(out, declID(m))
				out = append(out, exposed(m.Type(), seen)...)
			}
		}
		out = append(out, exposed(t.Underlying(), seen)...)
	case *types.Pointer:
		return exposed(t.Elem(), seen)
	case *types.Slice:
		return exposed(t.Elem(), seen)
	case *types.Array:
		return exposed(t.Elem(), seen)
	case *types.Chan:
		return exposed(t.Elem(), seen)
	case *types.Map:
		return append(exposed(t.Key(), seen), exposed(t.Elem(), seen)...)
	case *types.Signature:
		// Results only: a caller outside the module cannot make a value of
		// an internal type to pass in, only receive one.
		return exposed(t.Results(), seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			out = append(out, exposed(t.At(i).Type(), seen)...)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				out = append(out, exposed(f.Type(), seen)...)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				out = append(out, declID(m))
				out = append(out, exposed(m.Type(), seen)...)
			}
		}
	}
	return out
}

// declsOf returns the graph nodes one top-level declaration makes, keyed by
// id. An init function, a blank variable and a method of an interface
// literal run or are callable without being named: they come back under the
// empty id, which the caller treats as a root.
func (inv *inventory) declsOf(p *invPkg, d ast.Decl) map[string]*decl {
	out := make(map[string]*decl)
	add := func(name *ast.Ident, nodes ...ast.Node) {
		id := declID(p.info.Defs[name])
		if name.Name == "init" || name.Name == "_" {
			id = ""
		}
		node := out[id]
		if node == nil {
			node = &decl{pos: inv.fset.Position(name.Pos()).String()}
			out[id] = node
		}
		if tn, ok := p.info.Defs[name].(*types.TypeName); ok && !tn.IsAlias() {
			node.typ, _ = tn.Type().(*types.Named)
		}
		for _, n := range nodes {
			if n == nil {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if ident, ok := n.(*ast.Ident); ok {
					if use := declID(p.info.Uses[ident]); use != "" {
						node.uses = append(node.uses, use)
					}
				}
				return true
			})
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		var recv ast.Node
		if d.Recv != nil {
			recv = d.Recv
		}
		var body ast.Node
		if d.Body != nil {
			body = d.Body
		}
		add(d.Name, recv, d.Type, body)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, spec.Type)
				// The methods an interface declares are nodes too: reached
				// when somebody calls them through the interface.
				if it, ok := spec.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							add(name, m.Type)
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					var nodes []ast.Node
					if spec.Type != nil {
						nodes = append(nodes, spec.Type)
					}
					for _, v := range spec.Values {
						nodes = append(nodes, v)
					}
					add(name, nodes...)
				}
			}
		}
	}
	return out
}
