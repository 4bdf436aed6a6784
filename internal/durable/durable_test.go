package durable

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestWriteFileLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "CURRENT")
	for _, content := range []string{"1\n", "2\n"} {
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "CURRENT" {
			t.Fatalf("directory holds %v after a commit, want only CURRENT", entries)
		}
	}
}

// A rename over a non-empty directory fails: the error must surface, the
// old content must survive and no temp file may be left behind.
func TestWriteFileFailedRenameKeepsOldContent(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "MANIFEST")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(target, "old")
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("new")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "old" {
		t.Fatalf("old content = %q (err %v), want it intact", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, TmpPrefix+"MANIFEST")); !os.IsNotExist(err) {
		t.Fatalf("temp file left after a failed commit (stat err = %v)", err)
	}
}

func TestHookFromEnvRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{"gen-commit", "gen-commit:", "gen-commit:x", "gen-commit:0", "gen-commit:-2", ":3"} {
		t.Setenv(CrashEnv, spec)
		if h, err := HookFromEnv(); err == nil || h != nil {
			t.Errorf("%s=%q: hook %v, err %v; want a parse error", CrashEnv, spec, h != nil, err)
		}
	}
	t.Setenv(CrashEnv, "")
	if h, err := HookFromEnv(); err != nil || h != nil {
		t.Fatalf("unset %s: hook %v, err %v; want no hook", CrashEnv, h != nil, err)
	}
}

// The crash hook counts occurrences of its step across goroutines and
// fires at the n-th one, whichever goroutine reaches it.
func TestCrashHookFiresAtNthOccurrence(t *testing.T) {
	var mu sync.Mutex
	var fired []int64
	h, err := crashHook("append-sync:40", func(step, path string, n int64) {
		mu.Lock()
		fired = append(fired, n)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				h.At("append-sync", "seg")
				h.At("gen-commit", "gen")
			}
		}()
	}
	wg.Wait()
	if len(fired) != 1 || fired[0] != 40 {
		t.Fatalf("crash fired at occurrences %v, want exactly [40]", fired)
	}
}

// One AIIO_CRASH spec is installed on the registry and the job log alike,
// so their Step* names must never collide. The constants are read from
// the packages' source, so a step added later is checked too.
func TestStepNamesDisjoint(t *testing.T) {
	owner := map[string]string{}
	for _, pkg := range []string{"../core", "../joblog"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, pkg, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, p := range pkgs {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					vs, ok := n.(*ast.ValueSpec)
					if !ok {
						return true
					}
					for i, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Step") || i >= len(vs.Values) {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						step, _ := strconv.Unquote(lit.Value)
						id := filepath.Base(pkg) + "." + name.Name
						if prev, dup := owner[step]; dup {
							t.Errorf("step name %q is used by both %s and %s", step, prev, id)
						}
						owner[step] = id
						found++
					}
					return true
				})
			}
		}
		if found == 0 {
			t.Fatalf("no Step* constants found in %s", pkg)
		}
	}
}
