package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpc-repro/aiio/internal/gbdt"
)

// saveGenerations saves ens n times, returning the store (each save is a
// new committed generation of the same model set).
func saveGenerations(t *testing.T, ens *Ensemble, n int) *Store {
	t.Helper()
	st := OpenStore(t.TempDir())
	for i := 0; i < n; i++ {
		if _, err := st.Save(ens); err != nil {
			t.Fatalf("save generation %d: %v", i+1, err)
		}
	}
	return st
}

func TestStoreSaveBumpsGeneration(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 3)
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != 1 || gens[2] != 3 {
		t.Fatalf("generations = %v, want [1 2 3]", gens)
	}
	e, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 3 || rep.FellBack {
		t.Fatalf("load report = %+v, want generation 3, no fallback", rep)
	}
	if len(e.Models) != len(ens.Models) {
		t.Fatalf("loaded %d models, want %d", len(e.Models), len(ens.Models))
	}
}

// TestStoreCorruptionFallsBack is the corruption drill of the issue's
// acceptance criteria: flip one byte of any saved model file and the
// loader must reject that generation and serve the previous one — never
// a panic or a silently wrong model.
func TestStoreCorruptionFallsBack(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 2)

	// Flip one byte in every model file of generation 2, one at a time —
	// any single corruption must be caught.
	genDir := filepath.Join(st.dir, "generations", "000002")
	entries, err := os.ReadDir(genDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Name() == "manifest.json" {
			continue
		}
		path := filepath.Join(genDir, ent.Name())
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), orig...)
		mut[len(mut)/2] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e, rep, err := st.Load()
		if err != nil {
			t.Fatalf("load with corrupt %s: %v", ent.Name(), err)
		}
		if rep.Generation != 1 || !rep.FellBack {
			t.Fatalf("corrupt %s: report = %+v, want fallback to generation 1", ent.Name(), rep)
		}
		if len(rep.Rejected) != 1 || rep.Rejected[0].Generation != 2 ||
			!strings.Contains(rep.Rejected[0].Err, "checksum mismatch") {
			t.Fatalf("corrupt %s: rejected = %+v, want gen-2 checksum mismatch", ent.Name(), rep.Rejected)
		}
		if len(e.Models) != len(ens.Models) {
			t.Fatalf("fallback ensemble has %d models", len(e.Models))
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreAllGenerationsCorruptIsAnError(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 2)
	for _, gen := range []string{"000001", "000002"} {
		path := filepath.Join(st.dir, "generations", gen, ens.Models[0].Name()+".gob")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Load(); err == nil {
		t.Fatal("Load succeeded with every generation corrupt")
	} else if !strings.Contains(err.Error(), "no loadable generation") {
		t.Fatalf("err = %v, want 'no loadable generation'", err)
	}
}

func TestStoreMissingCurrentAdoptsNewestGeneration(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 2)
	// Crash window: generation committed but CURRENT never flipped.
	if err := os.Remove(filepath.Join(st.dir, "CURRENT")); err != nil {
		t.Fatal(err)
	}
	_, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 2 {
		t.Fatalf("generation = %d without CURRENT, want newest (2)", rep.Generation)
	}
}

func TestStoreStaleCurrentPinsGeneration(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 3)
	// An operator rollback: CURRENT points at an older, intact generation.
	if err := os.WriteFile(filepath.Join(st.dir, "CURRENT"), []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 2 || rep.FellBack {
		t.Fatalf("report = %+v, want pinned generation 2", rep)
	}
}

func TestStoreSweepsCrashedTempDirs(t *testing.T) {
	_, ens, _ := fixture(t)
	st := OpenStore(t.TempDir())
	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed save's debris.
	debris := filepath.Join(st.dir, "generations", ".tmp-000002")
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(debris, "partial.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("crashed temp dir survived the next save (stat err = %v)", err)
	}
	gens, _ := st.Generations()
	if len(gens) != 2 {
		t.Fatalf("generations = %v, want [1 2]", gens)
	}
}

// TestStoreCrashMidSaveRecoversPreviousGeneration crashes every commit that
// shares Save's path — Save, ImportGeneration and Restore — at each of its
// durable steps in turn. CURRENT flips last, so after every crash the
// store must still serve the generation it served before, with no
// checksum fallback, and every visible generation must verify: a temp
// directory never becomes a generation.
func TestStoreCrashMidSaveRecoversPreviousGeneration(t *testing.T) {
	_, ens, _ := fixture(t)
	peer := saveGenerations(t, ens, 1)
	peerMan, err := peer.Manifest(1)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(file string) (io.ReadCloser, error) { return peer.OpenModelFile(1, file) }
	injected := errors.New("injected crash")
	ops := []struct {
		name  string
		steps []string
		run   func(st *Store) error
		want  uint64 // generation a clean run serves, from two saved ones
	}{
		{"Save", []string{StepModelWrite, StepModelSync, StepManifestWrite, StepGenCommit, StepCurrentCommit},
			func(st *Store) error { _, err := st.Save(ens); return err }, 4},
		{"ImportGeneration", []string{StepModelWrite, StepManifestWrite, StepGenCommit, StepCurrentCommit},
			func(st *Store) error { _, err := st.ImportGeneration(peerMan, fetch); return err }, 4},
		{"Restore", []string{StepModelWrite, StepManifestWrite, StepGenCommit, StepCurrentCommit},
			func(st *Store) error { _, err := st.Restore(1); return err }, 4},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			st := saveGenerations(t, ens, 2)
			for _, step := range op.steps {
				crashAt := step
				st.SetHook(func(s, path string) error {
					if s == crashAt {
						return injected
					}
					return nil
				})
				if err := op.run(st); !errors.Is(err, injected) {
					t.Fatalf("crash at %s: err = %v, want injected crash", crashAt, err)
				}
				st.SetHook(nil)
				_, rep, err := st.Load()
				if err != nil {
					t.Fatalf("load after crash at %s: %v", crashAt, err)
				}
				if rep.Generation != 2 || rep.FellBack {
					t.Fatalf("crash at %s: report = %+v, want generation 2 with no fallback — partial state was visible",
						crashAt, rep)
				}
				gens, err := st.Generations()
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range gens {
					if _, _, err := st.LoadGeneration(g); err != nil {
						t.Fatalf("crash at %s left generation %d unverifiable: %v", crashAt, g, err)
					}
				}
			}
			// A clean run afterwards commits and wins. The crash at
			// current-commit left generation 3 committed but not current.
			if err := op.run(st); err != nil {
				t.Fatal(err)
			}
			_, rep, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Generation != op.want || rep.FellBack {
				t.Fatalf("after a clean %s: report = %+v, want generation %d", op.name, rep, op.want)
			}
		})
	}
}

func TestStorePrunesOldGenerations(t *testing.T) {
	_, ens, _ := fixture(t)
	st := OpenStore(t.TempDir())
	st.Keep = 2
	for i := 0; i < 4; i++ {
		if _, err := st.Save(ens); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Fatalf("generations after prune = %v, want [3 4]", gens)
	}
}

// TestStoreStrippedChecksumFallsBack: a manifest entry whose sha256 is
// missing or truncated cannot verify its file. Load rejects the generation
// and serves the previous one, and an import of the same manifest fails
// without committing anything.
func TestStoreStrippedChecksumFallsBack(t *testing.T) {
	_, ens, _ := fixture(t)
	for _, tc := range []struct{ name, sum, want string }{
		{"stripped", "", "no checksum"},
		{"truncated", "abc", "checksum mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := saveGenerations(t, ens, 2)
			man, err := st.Manifest(2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range man.Models {
				man.Models[i].SHA256 = tc.sum
			}
			data, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			genDir := filepath.Join(st.dir, "generations", "000002")
			if err := os.WriteFile(filepath.Join(genDir, "manifest.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rep, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Generation != 1 || !rep.FellBack || rep.Fingerprint == "" {
				t.Fatalf("report = %+v, want a verified fallback to generation 1", rep)
			}
			if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0].Err, tc.want) {
				t.Fatalf("rejected = %+v, want generation 2 rejected with %q", rep.Rejected, tc.want)
			}

			follower := OpenStore(t.TempDir())
			fetch := func(file string) (io.ReadCloser, error) { return os.Open(filepath.Join(genDir, file)) }
			if _, err := follower.ImportGeneration(man, fetch); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("import: err = %v, want %q", err, tc.want)
			}
			if gens, _ := follower.Generations(); len(gens) != 0 {
				t.Fatalf("a refused import committed generations %v", gens)
			}
		})
	}
}

func TestStoreLoadWithoutGenerationsNamesDir(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := OpenStore(dir).Load(); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Load of an empty registry: err = %v, want an error naming %s", err, dir)
	}
}

func TestStoreManifestTamperRejected(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 2)
	manPath := filepath.Join(st.dir, "generations", "000002", "manifest.json")
	if err := os.WriteFile(manPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 || !rep.FellBack {
		t.Fatalf("report = %+v, want fallback to generation 1 on manifest tamper", rep)
	}
}

// TestStoreStructurallyCorruptModelFallsBack covers the validation layer
// below the checksums: a generation whose gbdt model decodes cleanly and
// matches its manifest checksum, but holds a cyclic tree, must be rejected
// by gbdt.Load's structural validation and fall back to the previous
// generation instead of looping forever in Tree.Predict.
func TestStoreStructurallyCorruptModelFallsBack(t *testing.T) {
	_, ens, _ := fixture(t)
	st := saveGenerations(t, ens, 2)
	genDir := filepath.Join(st.dir, "generations", "000002")
	manPath := filepath.Join(genDir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man GenerationManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i, ent := range man.Models {
		if ent.Kind != "gbdt" {
			continue
		}
		path := filepath.Join(genDir, ent.File)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := gbdt.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		gm.Trees[0].Left[0] = 0 // self cycle: decodes fine, traversal would loop
		var buf bytes.Buffer
		if err := gm.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		man.Models[i].SHA256 = hex.EncodeToString(sum[:])
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("fixture ensemble holds no gbdt model")
	}
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	e, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 || !rep.FellBack {
		t.Fatalf("report = %+v, want fallback to generation 1", rep)
	}
	if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0].Err, "corrupt model") {
		t.Fatalf("rejected = %+v, want the gbdt corrupt-model marker", rep.Rejected)
	}
	if len(e.Models) != len(ens.Models) {
		t.Fatalf("fallback ensemble has %d models, want %d", len(e.Models), len(ens.Models))
	}
}
