// The reachability check: every declaration in internal/ must be
// reachable from a program of the repository, so code that only tests
// call cannot accumulate. doc.go ("Reachability") states the rules.
package tatooine_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// deadAllowed names the declarations in internal/ that no program
// reaches but that stay, each with the reason it stays. A key is the
// package name, then the receiver type for a method, then the name.
var deadAllowed = map[string]string{}

func TestInternalDeclarationsAreReachable(t *testing.T) {
	l, err := newModuleLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.parseAll(); err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		l.Import(path)
	}
	if len(l.typeErrs) > 0 {
		t.Fatalf("type errors:\n%s", strings.Join(l.typeErrs, "\n"))
	}

	decls, roots, edges := l.graph()
	reached := l.reach(roots, edges)

	var dead []string
	lines := 0
	for name, d := range decls {
		if reached[d.obj] {
			if _, ok := deadAllowed[name]; ok {
				t.Errorf("allowlist entry %s is reachable now: delete the entry", name)
			}
			continue
		}
		if _, ok := deadAllowed[name]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s, %d lines)", name, d.pos, d.lines))
		lines += d.lines
	}
	for name := range deadAllowed {
		if _, ok := decls[name]; !ok {
			t.Errorf("allowlist entry %s names no declaration in internal/: delete the entry", name)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations in internal/ (%d lines) are reached by no main or init of cmd/, examples/ or bench/: "+
			"delete them, or add them to deadAllowed with a reason:\n\t%s",
			len(dead), lines, strings.Join(dead, "\n\t"))
	}
}

// moduleLoader type-checks the packages of this module and of the
// nested bench module with full bodies, and the standard-library
// packages they import, directly or not, with function bodies ignored.
// It parses every package in parallel first, then type-checks in
// import order.
type moduleLoader struct {
	fset     *token.FileSet
	goroot   string
	dirs     map[string]string // module import path -> directory
	pkgs     map[string]*checkedPkg
	typeErrs []string
}

type checkedPkg struct {
	dir     string
	files   []*ast.File
	imports []string
	pkg     *types.Package
	info    *types.Info
}

// decl is one package-level declaration or method in internal/.
type decl struct {
	obj   types.Object
	pos   string
	lines int
}

func newModuleLoader(root string) (*moduleLoader, error) {
	l := &moduleLoader{
		fset:   token.NewFileSet(),
		goroot: build.Default.GOROOT,
		dirs:   map[string]string{},
		pkgs:   map[string]*checkedPkg{},
	}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := "tatooine"
		if dir != "." {
			ip += "/" + dir // bench/ is module tatooine/bench, so one rule serves both
		}
		l.dirs[ip] = dir
		return nil
	})
	return l, err
}

// dir locates an import path: a module package, a standard-library
// package, or one vendored into the standard library.
func (l *moduleLoader) dir(path string) (importPath, dir string) {
	if d, ok := l.dirs[path]; ok {
		return path, d
	}
	if d := filepath.Join(l.goroot, "src", path); isDir(d) {
		return path, d
	}
	return "vendor/" + path, filepath.Join(l.goroot, "src", "vendor", path)
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// parseAll parses the module's packages and every package they import,
// directly or not, each package on its own goroutine with at most
// GOMAXPROCS parsing at once.
func (l *moduleLoader) parseAll() error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		sem  = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	var visit func(path string)
	visit = func(path string) {
		if path == "unsafe" {
			return
		}
		path, dir := l.dir(path)
		mu.Lock()
		if _, seen := l.pkgs[path]; seen {
			mu.Unlock()
			return
		}
		p := &checkedPkg{dir: dir}
		l.pkgs[path] = p
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			err := l.parse(p)
			<-sem
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			for _, imp := range p.imports {
				visit(imp)
			}
		}()
	}
	for path := range l.dirs {
		visit(path)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// parse reads the non-test files of p's directory that build for this
// platform with cgo off, the pure-Go build, whose API is the same.
func (l *moduleLoader) parse(p *checkedPkg) error {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return err
	}
	imports := map[string]bool{}
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || !matchFile(p.dir, n, "") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !matchFile(p.dir, n, goBuildLine(f)) {
			continue
		}
		var fileImports []string
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			fileImports = append(fileImports, path)
		}
		if slices.Contains(fileImports, "C") {
			continue
		}
		p.files = append(p.files, f)
		for _, path := range fileImports {
			imports[path] = true
		}
	}
	for path := range imports {
		p.imports = append(p.imports, path)
	}
	return nil
}

// matchFile asks go/build whether a file of that name, headed by the
// //go:build line given, builds for this platform with cgo off. The
// header is handed over in place of the file, so go/build reads no
// source.
func matchFile(dir, name, goBuild string) bool {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	ctxt.OpenFile = func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(goBuild + "\n\npackage p\n")), nil
	}
	ok, err := ctxt.MatchFile(dir, name)
	return ok && err == nil
}

func goBuildLine(f *ast.File) string {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build ") {
				return c.Text
			}
		}
	}
	return ""
}

// Import type-checks a parsed package once, after its imports: module
// packages with full bodies, the standard library without.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	path, _ = l.dir(path)
	p := l.pkgs[path]
	if p.pkg != nil {
		return p.pkg, nil
	}
	_, module := l.dirs[path]
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: !module,
		Error:            func(err error) { l.typeErrs = append(l.typeErrs, err.Error()) },
	}
	p.pkg, _ = conf.Check(path, l.fset, p.files, p.info)
	return p.pkg, nil
}

// graph returns the internal/ declarations by name, the roots (main of
// cmd/, examples/ and bench/, every init and every var _ = …), and for
// each module declaration the module objects its source names.
func (l *moduleLoader) graph() (map[string]decl, []types.Object, map[types.Object][]types.Object) {
	decls := map[string]decl{}
	edges := map[types.Object][]types.Object{}
	var roots []types.Object
	for path := range l.dirs {
		p := l.pkgs[path]
		internal := strings.HasPrefix(path, "tatooine/internal/")
		program := p.pkg.Name() == "main"
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					edges[obj] = l.uses(p.info, d)
					if d.Recv == nil && (d.Name.Name == "init" || program && d.Name.Name == "main") {
						roots = append(roots, obj)
					} else if internal {
						decls[declName(obj)] = l.declAt(obj, d.Doc, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						used := l.uses(p.info, s)
						for _, n := range names {
							obj := p.info.Defs[n]
							if n.Name == "_" {
								obj = types.NewVar(n.Pos(), p.pkg, "_", nil) // a root of its own
								roots = append(roots, obj)
							} else if internal {
								doc := d.Doc
								if len(d.Specs) > 1 {
									doc = nil
								}
								decls[declName(obj)] = l.declAt(obj, doc, s)
							}
							edges[obj] = used
						}
					}
				}
			}
		}
	}
	return decls, roots, edges
}

// uses lists the module-level objects (package-level names and
// methods of this module) that node's identifiers refer to.
func (l *moduleLoader) uses(info *types.Info, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || l.dirs[obj.Pkg().Path()] == "" {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Parent() == obj.Pkg().Scope() || isMethod(obj) {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// reach marks everything the roots name, transitively. A reached named
// type also reaches each of its methods that has the name and the
// signature of some interface method, since a call through an
// interface names no concrete method.
func (l *moduleLoader) reach(roots []types.Object, edges map[types.Object][]types.Object) map[types.Object]bool {
	ifaceMethods := l.interfaceMethods()
	satisfies := func(m *types.Func) bool {
		for _, sig := range ifaceMethods[m.Name()] {
			if types.Identical(sig, m.Type()) { // receivers are ignored
				return true
			}
		}
		return false
	}
	reached := map[types.Object]bool{}
	work := append([]types.Object(nil), roots...)
	for _, r := range roots {
		reached[r] = true
	}
	mark := func(o types.Object) {
		if !reached[o] {
			reached[o] = true
			work = append(work, o)
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range edges[o] {
			mark(u)
		}
		if tn, ok := o.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); satisfies(m) {
						mark(m)
					}
				}
			}
		}
	}
	return reached
}

// interfaceMethods collects, by name, the signatures of the methods
// declared by every interface type in the source of the module and of
// the standard-library packages it imports, directly or not, whether
// named or a literal. A method an interface embeds is declared by the
// embedded interface, which is loaded too; only the predeclared error
// interface has no source.
func (l *moduleLoader) interfaceMethods() map[string][]types.Type {
	errorMethod := types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)
	sigs := map[string][]types.Type{"Error": {errorMethod.Type()}}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							// nil inside a standard-library function body, which is not checked
							if obj := p.info.Defs[id]; obj != nil {
								sigs[id.Name] = append(sigs[id.Name], obj.Type())
							}
						}
					}
				}
				return true
			})
		}
	}
	return sigs
}

func (l *moduleLoader) declAt(obj types.Object, doc *ast.CommentGroup, node ast.Node) decl {
	start := node.Pos()
	if doc != nil {
		start = doc.Pos()
	}
	p := l.fset.Position(obj.Pos())
	return decl{
		obj:   obj,
		pos:   fmt.Sprintf("%s:%d", p.Filename, p.Line),
		lines: l.fset.Position(node.End()).Line - l.fset.Position(start).Line + 1,
	}
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// declName is the allowlist key: package name, receiver type name for
// a method, then the declared name.
func declName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name += n.Obj().Name() + "."
			}
		}
	}
	return name + obj.Name()
}
