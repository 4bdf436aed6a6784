package aiio

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The architecture rules: each keeps one mechanism in the one place that
// owns it. They read the type-checked module knob_test.go's loadModule
// builds (non-test files only), so they match objects, not text: an
// aliased import, a method value or an oddly named receiver is still
// caught, and a comment never counts. Each failure names file:line.

// TestArchOneDurableCommitPrimitive: every commit by rename goes through
// internal/durable, which owns the fsync before the rename, the directory
// fsync after it and the crash hook. Nothing else uses os.Rename, as a
// call or as a value. cmd/aiio-bench is frozen and has none.
func TestArchOneDurableCommitPrimitive(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module against compiled export data; skipped under -short")
	}
	var hits []string
	for _, p := range loadModule(t) {
		if p.rel == "internal/durable" || p.rel == "cmd/aiio-bench" {
			continue
		}
		for id, obj := range p.info.Uses {
			if funcName(obj) == "os.Rename" {
				hits = append(hits, p.pos(id)+": os.Rename")
			}
		}
	}
	failRule(t, hits, "os.Rename outside internal/durable")
}

// familyPackages are the model packages only internal/core/family.go may
// import, and familyKinds the manifest kinds only it may spell.
var (
	familyPackages = []string{"internal/gbdt", "internal/mlp", "internal/tabnet"}
	familyKinds    = []string{"gbdt", "mlp", "tabnet"}
)

// TestArchOneFamilyTable: each of the five models declares its name, kind,
// decoder, warm gate and fit once, in internal/core/family.go. No other
// non-test file of internal/core imports a model package or holds a string
// constant equal to a manifest kind.
func TestArchOneFamilyTable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module against compiled export data; skipped under -short")
	}
	var hits []string
	for _, p := range loadModule(t) {
		if p.rel != "internal/core" {
			continue
		}
		for _, file := range p.files {
			if p.relFile(file) == "internal/core/family.go" {
				continue
			}
			for _, imp := range file.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				for _, fam := range familyPackages {
					if ip == modulePath+"/"+fam {
						hits = append(hits, p.pos(imp)+": imports "+fam)
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.BasicLit, *ast.BinaryExpr:
				default:
					return true
				}
				tv := p.info.Types[n.(ast.Expr)]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					return true
				}
				for _, kind := range familyKinds {
					if constant.StringVal(tv.Value) == kind {
						hits = append(hits, p.pos(n)+": string constant "+strconv.Quote(kind))
						return false
					}
				}
				return true
			})
		}
	}
	failRule(t, hits, "model family declared outside internal/core/family.go")
}

// TestArchOneTransitionPath: boot, upload, auto-promotion, peer adoption
// and rollback all change the serving set through Server.install in
// internal/webservice/lifecycle.go, which swaps the set, bumps the version,
// re-arms the drift reference and resets the error ring once. Nothing else
// assigns, increments or takes the address of Server.ens or Server.version
// (NewServer's composite literal builds a server, it does not swap one), no
// other non-test webservice file calls Monitor.SetReference or ResetErrors,
// and aiio-server leaves drift references to install.
func TestArchOneTransitionPath(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module against compiled export data; skipped under -short")
	}
	pkgs := loadModule(t)
	var server *types.Struct
	for _, p := range pkgs {
		if p.rel == "internal/webservice" {
			server, _ = p.pkg.Scope().Lookup("Server").Type().Underlying().(*types.Struct)
		}
	}
	if server == nil {
		t.Fatal("internal/webservice.Server is not a struct")
	}
	guarded := map[types.Object]bool{}
	for i := 0; i < server.NumFields(); i++ {
		if f := server.Field(i); f.Name() == "ens" || f.Name() == "version" {
			guarded[f] = true
		}
	}
	if len(guarded) != 2 {
		t.Fatalf("internal/webservice.Server has %d of the fields ens and version", len(guarded))
	}
	const (
		lifecycleFile = "internal/webservice/lifecycle.go"
		driftPath     = modulePath + "/internal/drift"
	)
	var hits []string
	for _, p := range pkgs {
		for _, file := range p.files {
			if p.relFile(file) == lifecycleFile {
				continue
			}
			// written flags e when it names a guarded field.
			written := func(e ast.Expr, how string) {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok {
					return
				}
				if s := p.info.Selections[sel]; s != nil && guarded[s.Obj()] {
					hits = append(hits, p.pos(sel)+": "+how+" Server."+s.Obj().Name())
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs, "assigns")
					}
				case *ast.IncDecStmt:
					written(n.X, "increments")
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X, "takes the address of")
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			switch name := funcName(obj); {
			case (name == "(*"+driftPath+".Monitor).SetReference" || name == "(*"+driftPath+".Monitor).ResetErrors") &&
				p.rel == "internal/webservice" && p.relFile(id) != lifecycleFile:
				hits = append(hits, p.pos(id)+": Monitor."+obj.Name())
			case name == driftPath+".ParseReference" && p.rel == "cmd/aiio-server":
				hits = append(hits, p.pos(id)+": drift.ParseReference")
			}
		}
	}
	failRule(t, hits, "generation transition outside Server.install")
}

// lifecycleBannedImports are the packages a pure decision machine has no
// use for: a clock, a lock, a goroutine's channels, I/O, or the packages
// that carry its commands out.
var lifecycleBannedImports = []string{
	"net/http", "os", "sync", "sync/atomic", "time",
	modulePath + "/internal/webservice", modulePath + "/internal/joblog",
}

// lifecycleState names the state internal/lifecycle owns, which no non-test
// webservice identifier may take back.
var lifecycleState = []string{"retrainBusy", "retrainState", "checkWatch", "promotionWatch"}

// TestArchLifecycleMachineIsPure: internal/lifecycle decides retrain,
// watch, rollback and peer adoption with no clock, goroutine, lock or I/O,
// and webservice only carries out its commands.
func TestArchLifecycleMachineIsPure(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module against compiled export data; skipped under -short")
	}
	var hits []string
	for _, p := range loadModule(t) {
		for _, file := range p.files {
			switch p.rel {
			case "internal/lifecycle":
				for _, imp := range file.Imports {
					ip, _ := strconv.Unquote(imp.Path.Value)
					for _, banned := range lifecycleBannedImports {
						if ip == banned {
							hits = append(hits, p.pos(imp)+": imports "+ip)
						}
					}
				}
			case "internal/webservice":
				ast.Inspect(file, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						for _, name := range lifecycleState {
							if id.Name == name {
								hits = append(hits, p.pos(id)+": identifier "+name)
							}
						}
					}
					return true
				})
			}
		}
	}
	failRule(t, hits, "lifecycle decisions or state outside a pure internal/lifecycle")
}

// funcName is the full name of the function or method obj denotes, e.g.
// "os.Rename" or "(*example.com/pkg.T).M", or "" for any other object.
func funcName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// pos renders n's position as file:line, the file relative to the module
// root.
func (p *modPkg) pos(n ast.Node) string {
	return p.relFile(n) + ":" + strconv.Itoa(p.fset.Position(n.Pos()).Line)
}

// relFile is the module-relative path of the file holding n.
func (p *modPkg) relFile(n ast.Node) string {
	return path.Join(p.rel, filepath.Base(p.fset.Position(n.Pos()).Filename))
}

// failRule fails t with every hit, sorted, under one headline.
func failRule(t *testing.T, hits []string, headline string) {
	t.Helper()
	if len(hits) == 0 {
		return
	}
	sort.Strings(hits)
	t.Errorf("%s:\n\t%s", headline, strings.Join(hits, "\n\t"))
}
