package aiio

import (
	"bufio"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// knobAllowlist names the knobs the census tolerates, keyed as its
// failures print them, each with the reason it may stay. It may only
// shrink: an entry the census no longer needs fails the test, and the
// list may hold no more than knobAllowlistCeiling entries.
var knobAllowlist = map[string]string{
	"internal/webservice.Server.CoalesceWindow": "cmd/aiio-bench/replay.go still sets it; the next benchmark change drops it (ROADMAP item 2)",
	"env AIIO_CRASH": "internal/durable's kill switch for the crash drills, until a filesystem seam replaces it (ROADMAP item 4a)",
}

// knobAllowlistCeiling caps knobAllowlist. Lower it when an entry goes;
// never raise it.
const knobAllowlistCeiling = 2

// knobExtraStructs are the structs the census checks besides every
// exported *Options / *Config struct under internal/: set-before-use
// configuration that does not carry the suffix.
var knobExtraStructs = map[string]bool{
	"internal/webservice.Server": true,
	"internal/webservice.Syncer": true,
	"internal/nn.Loop":           true,
}

// knobFlagBinaries are the commands whose every flag needs a row in one of
// README.md's flag tables.
var knobFlagBinaries = []string{"cmd/aiio-server", "cmd/aiio-router"}

// TestKnobCensus is the configuration census, the companion of the
// dead-code census in reach_test.go. It type-checks every non-test package
// of the module and fails on three kinds of knob:
//
//   - an exported field of an exported struct under internal/ named
//     *Options or *Config (or listed in knobExtraStructs) that no non-test
//     code reads, or that no non-test code sets. Filling in a default
//     inside the struct's own package under an if that tests the field
//     (if o.F == 0 { o.F = D }) is no set: it brings in no value a caller
//     chose. Nor is copying another censused field (cfg.F = opts.G) by
//     itself: the copy counts only when the field it copies is set;
//   - an os.Getenv or os.LookupEnv of a variable;
//   - a flag of a command in knobFlagBinaries with no row in README.md's
//     flag tables.
//
// A knob only tests set belongs behind an unexported seam, with the
// alternative in a _test.go file of its package.
func TestKnobCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module against compiled export data; skipped under -short")
	}
	if len(knobAllowlist) > knobAllowlistCeiling {
		t.Errorf("knobAllowlist holds %d entries, over its ceiling of %d: the list may only shrink",
			len(knobAllowlist), knobAllowlistCeiling)
	}
	pkgs := loadModule(t)
	found := map[string]string{} // knob -> why it fails
	fields := fieldKnobs(pkgs, found)
	t.Logf("%d exported option fields in %d structs", len(fields.key), fields.structs)
	for _, name := range envKnobs(pkgs) {
		found["env "+name] = "read from the environment"
	}
	documented := readmeFlags(t)
	for _, f := range flagKnobs(pkgs) {
		if !documented["-"+f.name] {
			found[f.bin+" -"+f.name] = "has no row in README.md's flag tables"
		}
	}

	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := knobAllowlist[k]; !ok {
			t.Errorf("knob %s: %s", k, found[k])
		}
	}
	for k := range knobAllowlist {
		if _, ok := found[k]; !ok {
			t.Errorf("knobAllowlist entry %s is no longer needed: delete it and lower knobAllowlistCeiling", k)
		}
	}
}

// modPkg is one type-checked non-test package of the module.
type modPkg struct {
	rel   string // directory relative to the module root ("." for the root)
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// module holds the type-checked module once one test has loaded it: the
// knob census and the architecture rules read the same packages.
var module struct {
	sync.Mutex
	pkgs []*modPkg
}

// loadModule type-checks every non-test package of the module from source,
// dependencies first, importing the standard library from the export data
// go list -export compiles. The first call loads; later calls share it.
func loadModule(t *testing.T) []*modPkg {
	t.Helper()
	module.Lock()
	defer module.Unlock()
	if module.pkgs == nil {
		module.pkgs = typeCheckModule(t)
	}
	return module.pkgs
}

func typeCheckModule(t *testing.T) []*modPkg {
	t.Helper()
	cmd := exec.Command(goTool(t), "list", "-export", "-deps", "-f",
		`{{.ImportPath}}{{"\t"}}{{.Export}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}`, "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v", cmd.Args, err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	var pkgs []*modPkg
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		path, export, dir := f[0], f[1], f[2]
		if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
			exports[path] = export
			continue
		}
		p := &modPkg{rel: strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"), fset: fset, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		if p.rel == "" {
			p.rel = "."
		}
		for _, name := range strings.Fields(f[3]) {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, file)
		}
		pkg, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = pkg
		p.pkg = pkg
		pkgs = append(pkgs, p)
	}
	if len(pkgs) < 10 {
		t.Fatalf("go list found %d module packages", len(pkgs))
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// knobFields maps each censused field to its key, "internal/pkg.Type.Field".
type knobFields struct {
	key     map[*types.Var]string
	structs int
}

// fieldKnobs lists the censused option fields and records in found each
// one no non-test code reads or sets.
func fieldKnobs(pkgs []*modPkg, found map[string]string) knobFields {
	kf := knobFields{key: map[*types.Var]string{}}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, file := range p.files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					name := ts.Name.Name
					if !ts.Name.IsExported() || !(strings.HasSuffix(name, "Options") ||
						strings.HasSuffix(name, "Config") || knobExtraStructs[p.rel+"."+name]) {
						continue
					}
					st, ok := p.info.Types[ts.Type].Type.(*types.Struct)
					if !ok {
						continue
					}
					kf.structs++
					for i := 0; i < st.NumFields(); i++ {
						if v := st.Field(i); v.Exported() {
							kf.key[v] = p.rel + "." + name + "." + v.Name()
						}
					}
				}
			}
		}
	}
	u := fieldUses{read: map[*types.Var]bool{}, set: map[*types.Var]bool{}, copies: map[*types.Var][]*types.Var{}}
	for _, p := range pkgs {
		for _, file := range p.files {
			u.scan(p, file, kf)
		}
	}
	// A copy of a set field is a set.
	for changed := true; changed; {
		changed = false
		for dst, srcs := range u.copies {
			for _, src := range srcs {
				if !u.set[dst] && u.set[src] {
					u.set[dst], changed = true, true
				}
			}
		}
	}
	for v, k := range kf.key {
		switch {
		case !u.read[v] && !u.set[v]:
			found[k] = "is neither read nor set by non-test code"
		case !u.read[v]:
			found[k] = "is set but never read by non-test code"
		case !u.set[v]:
			found[k] = "is never set by non-test code (an in-package default, or a copy of an unset field, is no set)"
		}
	}
	return kf
}

// fieldUses records how non-test code uses the censused fields: which it
// reads, which it sets, and which it copies from another censused field.
type fieldUses struct {
	read, set map[*types.Var]bool
	copies    map[*types.Var][]*types.Var // field -> the censused fields copied into it
}

// scan records the uses of censused fields in file.
func (u fieldUses) scan(p *modPkg, file *ast.File, kf knobFields) {
	field := func(e ast.Expr) *types.Var {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s := p.info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return nil
		}
		v := s.Obj().(*types.Var).Origin()
		if _, ok := kf.key[v]; !ok {
			return nil
		}
		return v
	}
	// assigned records that v receives rhs: a copy when rhs is a censused
	// field, else a set.
	assigned := func(v *types.Var, rhs ast.Expr) {
		if src := field(rhs); src != nil {
			u.copies[v] = append(u.copies[v], src)
			return
		}
		u.set[v] = true
	}
	var stack []ast.Node
	// defaulted reports whether an assignment to v at the top of stack
	// fills in a default: it sits in v's own package, under an if whose
	// condition reads v.
	defaulted := func(v *types.Var) bool {
		if v.Pkg().Path() != strings.TrimSuffix(modulePath+"/"+p.rel, "/.") {
			return false
		}
		for i := len(stack) - 1; i >= 0; i-- {
			ifs, ok := stack[i].(*ast.IfStmt)
			if !ok {
				continue
			}
			tests := false
			ast.Inspect(ifs.Cond, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && field(e) == v {
					tests = true
				}
				return !tests
			})
			if tests {
				return true
			}
		}
		return false
	}
	writeOnly := map[ast.Expr]bool{}
	// written marks every censused field along the chain that e stores
	// through (x.A.B[i] stores into B and, through it, into A).
	written := func(e ast.Expr, rhs ast.Expr, plain bool) {
		for outer := true; e != nil; outer = false {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if v := field(x); v != nil {
					if outer && plain {
						writeOnly[x] = true
					}
					switch {
					case !outer:
						u.set[v] = true
					case !defaulted(v):
						assigned(v, rhs)
					}
				}
				e = x.X
				continue
			}
			return
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			plain := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				written(lhs, rhs, plain)
			}
		case *ast.IncDecStmt:
			written(n.X, nil, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				written(n.X, nil, false)
			}
		case *ast.CompositeLit:
			st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				v, val := st.Field(i), elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v, val = p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
				}
				assigned(v.Origin(), val)
			}
		case *ast.SelectorExpr:
			if v := field(n); v != nil && !writeOnly[n] {
				u.read[v] = true
			}
		}
		return true
	})
}

// envKnobs returns the variables non-test code reads with os.Getenv or
// os.LookupEnv ("?" for a name that is not a constant).
func envKnobs(pkgs []*modPkg) []string {
	var names []string
	for _, p := range pkgs {
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calledFunc(p.info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || (fn.Name() != "Getenv" && fn.Name() != "LookupEnv") {
					return true
				}
				name := "?"
				if tv := p.info.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String {
					name = constant.StringVal(tv.Value)
				}
				names = append(names, name)
				return true
			})
		}
	}
	return names
}

// flagKnob is one flag a command registers.
type flagKnob struct{ bin, name string }

// flagKnobs returns the flags the commands in knobFlagBinaries register
// through package flag (functions or FlagSet methods).
func flagKnobs(pkgs []*modPkg) []flagKnob {
	var flags []flagKnob
	for _, p := range pkgs {
		bin := ""
		for _, b := range knobFlagBinaries {
			if p.rel == b {
				bin = filepath.Base(b)
			}
		}
		if bin == "" {
			continue
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calledFunc(p.info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !fn.Exported() {
					return true
				}
				arg := 0 // String(name, ...), Func(name, ...)
				if strings.HasSuffix(fn.Name(), "Var") {
					arg = 1 // IntVar(p, name, ...), Var(value, name, ...)
				}
				if len(call.Args) <= arg {
					return true
				}
				tv := p.info.Types[call.Args[arg]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					return true // Parse, Args, Lookup and the like
				}
				flags = append(flags, flagKnob{bin, constant.StringVal(tv.Value)})
				return true
			})
		}
	}
	return flags
}

// calledFunc is the function or method call invokes, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// readmeFlagRe matches a backquoted flag name in a table row's first cell.
var readmeFlagRe = regexp.MustCompile("`(-[a-z0-9-]+)`")

// readmeFlags returns the flags named in the first cell of a README.md
// table row.
func readmeFlags(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range readmeFlagRe.FindAllStringSubmatch(cells[1], -1) {
			flags[m[1]] = true
		}
	}
	return flags
}
