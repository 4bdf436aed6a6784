package aiio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of this module (go.mod).
const modulePath = "github.com/hpc-repro/aiio"

// reachAllowlist names the internal/ functions no binary is expected to
// run, keyed by package directory (the whole package) or by the symbol the
// census prints, e.g. "internal/mlp.(*Model).Foo". Every entry carries a
// one-line comment saying why it may stay.
var reachAllowlist = map[string]bool{
	// Test-support package: seeded fault injectors for other packages' chaos tests.
	"internal/faults": true,
}

// TestEveryInternalFuncIsReachable is the dead-code census. It links every
// binary under cmd/ and examples/ with inlining off (so inlined callees stay
// in the graph), unions the call targets of the linker's dependency dump,
// and fails on any non-test, non-assembly func declared under internal/
// that none of them reaches. Exported functions of the root package count
// as roots, since code outside the module can call them.
func TestEveryInternalFuncIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("links every binary; skipped under -short")
	}
	reached := linkedSymbols(t)
	var dead []string
	for _, fn := range internalFuncs(t) {
		if reachAllowlist[fn.dir] || reachAllowlist[fn.sym] {
			continue
		}
		if !reached[fn.sym] && !(fn.alt != "" && reached[fn.alt]) {
			dead = append(dead, fmt.Sprintf("%s (%s)", fn.sym, fn.pos))
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d internal/ functions are reached by no binary; delete them, move test-only helpers into _test.go files, or allowlist them in reach_test.go:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// TestBinaryLinkSets keeps each server binary's package set to what it runs:
// the router is a consistent-hash proxy and links no model code, and the
// paper-baseline packages (rule classifier, clustering, Gauge, surrogate
// baselines, experiment drivers) stay out of both serving binaries.
func TestBinaryLinkSets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list; skipped under -short")
	}
	router := moduleDeps(t, "./cmd/aiio-router")
	for _, p := range router {
		if p != "internal/replica" && p != "cmd/aiio-router" {
			t.Errorf("aiio-router links %s; it may link only internal/replica from this module", p)
		}
	}
	banned := []string{"internal/classify", "internal/cluster", "internal/gauge", "internal/pdp", "internal/experiments"}
	for _, bin := range []string{"./cmd/aiio-server", "./cmd/aiio-router"} {
		deps := router
		if bin != "./cmd/aiio-router" {
			deps = moduleDeps(t, bin)
		}
		for _, p := range deps {
			for _, b := range banned {
				if p == b {
					t.Errorf("%s links %s, a paper-baseline package no server runs", bin, p)
				}
			}
		}
	}
}

// goTool returns the go command of the toolchain running the test.
func goTool(t *testing.T) string {
	t.Helper()
	if p := filepath.Join(runtime.GOROOT(), "bin", "go"); fileExists(p) {
		return p
	}
	p, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	return p
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// moduleDeps lists the packages of this module that pkg links, as paths
// relative to the module root.
func moduleDeps(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command(goTool(t), "list", "-deps", pkg).Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	var deps []string
	for _, line := range strings.Fields(string(out)) {
		if rel, ok := strings.CutPrefix(line, modulePath+"/"); ok {
			deps = append(deps, rel)
		}
	}
	return deps
}

// linkedSymbols links every main with -dumpdep and returns the set of
// internal/ symbols that appear as a call target, generic instantiation
// brackets stripped. The root package's exported functions are linked too,
// through a generated main supplied by -overlay.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	tmp := t.TempDir()
	rootMain := filepath.Join(tmp, "main.go")
	if err := os.WriteFile(rootMain, rootCallerMain(t), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	const rootDir = "internal/reachroot"
	overlay, _ := json.Marshal(map[string]any{"Replace": map[string]string{
		filepath.Join(wd, rootDir, "main.go"): rootMain,
	}})
	overlayFile := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goTool(t), "build", "-overlay", overlayFile,
		"-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull,
		"./cmd/...", "./examples/...", "./"+rootDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v\n%s", cmd.Args, err, out.Bytes())
	}
	prefix := modulePath + "/internal/"
	reached := make(map[string]bool)
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	mains := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			mains++
			continue
		}
		_, target, ok := strings.Cut(line, " -> ")
		// The linker appends attribute flags: "sym <UsedInIface><ReflectMethod>".
		target = strings.TrimSuffix(target, "<ReflectMethod>")
		target = strings.TrimSuffix(strings.TrimSuffix(target, "<UsedInIface>"), " ")
		if ok && strings.HasPrefix(target, prefix) {
			reached[strings.TrimPrefix(stripTypeArgs(target), modulePath+"/")] = true
		}
	}
	if mains < 3 || len(reached) == 0 {
		t.Fatalf("linker dependency dump is empty or unrecognised (%d mains, %d symbols):\n%.2000s", mains, len(reached), out.Bytes())
	}
	return reached
}

// rootCallerMain generates a main that references every exported function
// of the root package.
func rootCallerMain(t *testing.T) []byte {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["aiio"].Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && fd.Type.TypeParams == nil {
				names = append(names, "aiio."+fd.Name.Name)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("root package has no exported functions")
	}
	sort.Strings(names)
	return []byte(fmt.Sprintf("package main\n\nimport %q\n\nvar roots = []any{\n\t%s,\n}\n\nfunc main() { println(len(roots)) }\n",
		modulePath, strings.Join(names, ",\n\t")))
}

// stripTypeArgs removes bracketed type arguments from a linker symbol:
// pkg.F[go.shape.int] -> pkg.F, pkg.(*T[go.shape.int]).M -> pkg.(*T).M.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// internalFunc is one func declaration under internal/ and the linker
// symbols it is reachable as.
type internalFunc struct {
	dir string // package directory relative to the module root
	sym string // linker symbol relative to the module path
	alt string // pointer-receiver wrapper of a value method, if any
	pos string
}

// internalFuncs lists the func declarations with a body in the non-test
// files of internal/ that build for this platform.
func internalFuncs(t *testing.T) []internalFunc {
	t.Helper()
	var fns []internalFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Clean(dir))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn := internalFunc{dir: pkg, pos: fset.Position(fd.Pos()).String()}
			if fd.Recv == nil {
				fn.sym = pkg + "." + fd.Name.Name
			} else {
				typ, ptr := receiverType(fd.Recv.List[0].Type)
				if ptr {
					fn.sym = pkg + ".(*" + typ + ")." + fd.Name.Name
				} else {
					fn.sym = pkg + "." + typ + "." + fd.Name.Name
					fn.alt = pkg + ".(*" + typ + ")." + fd.Name.Name
				}
			}
			fns = append(fns, fn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

// receiverType returns a method receiver's base type name and whether it
// is a pointer receiver.
func receiverType(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}
