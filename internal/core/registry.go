package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/hpc-repro/aiio/internal/durable"
)

// The model registry stores pre-trained performance functions on disk, the
// way the AIIO web service manages its models (Section 3.4 / Fig. 17). It
// is a crash-safe, versioned store: each save commits a complete model set
// as a new immutable generation, every durable step is an internal/durable
// commit (temp file or directory + fsync + rename + directory fsync), and
// the manifest carries a SHA-256 per model file so a load can detect bit
// rot or a torn write and fall back to the last good generation instead of
// serving a corrupt model. On-disk layout:
//
//	dir/
//	  CURRENT             ← "N\n", the committed generation (atomic rename)
//	  generations/
//	    000001/
//	      manifest.json   ← {"generation":1,"models":[{name,kind,file,sha256}]}
//	      xgboost.gob
//	      ...
//	    000002/
//	      ...
//
// The commit point of a save is the rename of the finished temp directory
// to generations/N; CURRENT then flips to N. A crash anywhere in between
// leaves either a stray .tmp-* directory (swept by the next save) or a
// committed generation CURRENT does not name. Load prefers the generation
// CURRENT names, so that one is never served, and the next commit numbers
// past it; only with no CURRENT at all (the first save crashed) does Load
// start from the newest generation. Never a partially visible model set.
//
// CURRENT only moves forward: every write, a rollback's Restore included,
// is a commit of a new, higher generation, so outside that crash window
// CURRENT names the newest committed generation.

// ManifestEntry describes one stored model file. It is exported because the
// manifest is the unit of generation replication: a follower replica fetches
// a peer's manifest, then each model file, and verifies every SHA256 before
// the generation can be committed locally.
type ManifestEntry struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	File   string `json:"file"`
	SHA256 string `json:"sha256,omitempty"`
}

// CanaryRecord is the verdict of the canary gate that admitted a
// generation: before an incremental retrain commits, the candidate is
// shadow-evaluated against the serving ensemble on held-out recent jobs
// (internal/drift), and the numbers that justified the promotion are
// recorded here — the "which gate passed, at what confidence" provenance
// that flows into diagnosis advisories. A blocked candidate is never
// committed, so a manifest only ever carries a passing verdict (or none,
// for uploads and replication imports that bypass the gate).
type CanaryRecord struct {
	// Passed is whether the gate admitted the candidate.
	Passed bool `json:"passed"`
	// CandidateRMSE / ServingRMSE are the held-out errors (transformed
	// domain) of the new and incumbent ensembles; zero when the gate was
	// waived (no incumbent, or holdout below the trust minimum).
	CandidateRMSE float64 `json:"candidate_rmse,omitempty"`
	ServingRMSE   float64 `json:"serving_rmse,omitempty"`
	// Tolerance is the fractional slack the candidate was allowed.
	Tolerance float64 `json:"tolerance,omitempty"`
	// HoldoutJobs is how many held-out records the verdict rests on.
	HoldoutJobs int `json:"holdout_jobs"`
	// Reason is the human-readable verdict.
	Reason string `json:"reason,omitempty"`
	// EvaluatedUnix is when the gate ran.
	EvaluatedUnix int64 `json:"evaluated_unix,omitempty"`
}

// GenerationManifest is one committed generation's content listing.
type GenerationManifest struct {
	Generation uint64          `json:"generation,omitempty"`
	Models     []ManifestEntry `json:"models"`
	// Canary, when present, is the gate verdict that admitted this
	// generation. It does not participate in the fingerprint — two
	// replicas serving identical models are identical regardless of which
	// one ran the gate.
	Canary *CanaryRecord `json:"canary,omitempty"`
	// ReferenceFile names the drift-reference sidecar (the input
	// distribution snapshot frozen at training time) committed inside the
	// generation directory; empty when the generation was saved without
	// one. The sidecar is local provenance, not part of the replicated
	// model set.
	ReferenceFile string `json:"reference_file,omitempty"`
}

// Fingerprint is the content identity of a generation: the SHA-256 over the
// sorted (name, model checksum) pairs, independent of the local generation
// number. Two replicas serve the same model set iff their fingerprints
// match, no matter how their generation counters drifted. Empty when any
// model entry has no checksum.
func (m *GenerationManifest) Fingerprint() string {
	lines := make([]string, 0, len(m.Models))
	for _, e := range m.Models {
		if e.SHA256 == "" {
			return ""
		}
		lines = append(lines, e.Name+":"+e.SHA256)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

const (
	manifestName   = "manifest.json"
	referenceName  = "drift-reference.json"
	currentName    = "CURRENT"
	generationsDir = "generations"
	tmpPrefix      = durable.TmpPrefix
)

// DefaultKeepGenerations is how many committed generations a save retains
// (the rest are pruned oldest-first). At least two always survive, so the
// fall-back generation for the newest is never pruned away.
const DefaultKeepGenerations = 5

// Durable hook steps, in the order a save hits them (an import or a
// restore skips model-sync). A fault-injection hook
// (internal/faults, or AIIO_CRASH via durable.HookFromEnv) aborts the
// commit at one of these points to simulate a crash; production stores
// have no hook. The names are disjoint from the joblog's.
const (
	StepModelWrite    = "model-write"    // before streaming one model's bytes
	StepModelSync     = "model-sync"     // before fsyncing one model file
	StepManifestWrite = "manifest-write" // before writing the manifest
	StepGenCommit     = "gen-commit"     // before renaming the temp dir to generations/N
	StepCurrentCommit = "current-commit" // before renaming CURRENT into place
)

// Store is a versioned on-disk model registry rooted at a directory.
type Store struct {
	dir string
	// Keep bounds how many generations survive a save (DefaultKeepGenerations
	// when 0; values < 2 are raised to 2 so a fallback always exists).
	Keep int

	// saveMu serializes saves through one Store (concurrent web-service
	// uploads would otherwise race on the same next-generation number).
	saveMu sync.Mutex

	// hook runs before each durable step and aborts it on error — the
	// fault-injection seam for crash drills.
	hook durable.Hook
}

// OpenStore returns a store rooted at dir. The directory need not exist
// yet; the first Save creates it.
func OpenStore(dir string) *Store { return &Store{dir: dir} }

// SetHook installs a fault-injection hook called before every durable
// step of Save, ImportGeneration and Restore. A nil hook (the default)
// is a no-op.
func (s *Store) SetHook(h durable.Hook) { s.hook = h }

func (s *Store) keep() int {
	k := s.Keep
	if k == 0 {
		k = DefaultKeepGenerations
	}
	if k < 2 {
		k = 2
	}
	return k
}

func genDirName(gen uint64) string { return fmt.Sprintf("%06d", gen) }

// Generations lists the committed generation numbers, ascending; empty
// for a store that holds none.
func (s *Store) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, generationsDir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read generations: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		n, err := strconv.ParseUint(e.Name(), 10, 64)
		if err != nil {
			continue // foreign directory; not ours to judge
		}
		gens = append(gens, n)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// current reads the CURRENT pointer; ok is false when it is missing or
// unreadable (a crash window — the caller falls back to the highest
// committed generation).
func (s *Store) current() (gen uint64, ok bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, currentName))
	if err != nil {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// GenerationExtra is the optional provenance committed alongside a
// generation: the canary verdict that admitted it and the serialized
// drift-reference snapshot (internal/drift.Reference) of the training
// distribution. Both land inside the generation's temp directory before
// the commit rename, so they are exactly as crash-safe as the models.
type GenerationExtra struct {
	Canary    *CanaryRecord
	Reference []byte
}

// Save commits every model of e as a new generation and flips CURRENT to
// it, returning the new generation number. The write is crash-safe: until
// the final renames land, loads keep seeing the previous generation.
func (s *Store) Save(e *Ensemble) (uint64, error) { return s.SaveDetailed(e, nil) }

// SaveDetailed is Save with generation provenance attached. Each model is
// written to a file named after it, so an ensemble in which two models
// share a name is refused before any file is written.
func (s *Store) SaveDetailed(e *Ensemble, extra *GenerationExtra) (uint64, error) {
	names := make([]string, 0, len(e.Models))
	for _, m := range e.Models {
		if err := CheckModelName(m.Name()); err != nil {
			return 0, err
		}
		if slices.Contains(names, m.Name()) {
			return 0, fmt.Errorf("core: two models named %q", m.Name())
		}
		names = append(names, m.Name())
	}
	return s.commit(0, func(tmpDir string, man *GenerationManifest) error {
		for _, m := range e.Models {
			file := m.Name() + ".gob"
			path := filepath.Join(tmpDir, file)
			if err := s.hook.At(StepModelWrite, path); err != nil {
				return err
			}
			sum, err := s.writeModelFile(path, m)
			if err != nil {
				return err
			}
			man.Models = append(man.Models, ManifestEntry{
				Name: m.Name(), Kind: m.Kind(), File: file, SHA256: sum,
			})
		}
		return addExtra(tmpDir, man, extra)
	})
}

// addExtra writes extra's canary verdict into man and its drift-reference
// sidecar into the generation being filled; a nil extra adds nothing.
func addExtra(tmpDir string, man *GenerationManifest, extra *GenerationExtra) error {
	if extra == nil {
		return nil
	}
	man.Canary = extra.Canary
	if len(extra.Reference) > 0 {
		if err := durable.WriteSync(filepath.Join(tmpDir, referenceName), extra.Reference); err != nil {
			return fmt.Errorf("core: write drift reference: %w", err)
		}
		man.ReferenceFile = referenceName
	}
	return nil
}

// CheckModelName refuses a model name that is not a plain file name. The
// registry stores a model as <name>.gob in its generation's directory, so
// an empty name, "." or "..", or a name holding a path separator would put
// the file somewhere else.
func CheckModelName(name string) error {
	if !plainFileName(name) {
		return fmt.Errorf("core: model name %q is not a plain file name", name)
	}
	return nil
}

// plainFileName reports whether name names a file in a directory rather
// than a path out of it.
func plainFileName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
}

// commit is the one write path of Save, ImportGeneration and Restore, and
// the only caller of setCurrent. Under saveMu
// it sweeps debris of crashed commits, picks the next generation number
// (at least floor), and creates its temp directory; fill writes the model
// files into that directory and completes man. commit then writes the
// manifest, renames the directory to generations/N — the commit point —
// flips CURRENT and prunes. Any exit before the rename removes the temp
// directory, so a partial generation is never visible.
func (s *Store) commit(floor uint64, fill func(tmpDir string, man *GenerationManifest) error) (uint64, error) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	gensRoot := filepath.Join(s.dir, generationsDir)
	if err := os.MkdirAll(gensRoot, 0o755); err != nil {
		return 0, fmt.Errorf("core: create registry dir: %w", err)
	}
	// Sweep debris from crashed commits; their temp names can never collide
	// with a committed generation.
	if entries, err := os.ReadDir(gensRoot); err == nil {
		for _, ent := range entries {
			if strings.HasPrefix(ent.Name(), tmpPrefix) {
				os.RemoveAll(filepath.Join(gensRoot, ent.Name()))
			}
		}
	}
	gens, err := s.Generations()
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	if cur, ok := s.current(); ok && cur >= next {
		next = cur + 1
	}
	// An import adopts the peer's number when it is ahead of local history,
	// so fleet generation counters converge instead of drifting apart one
	// import at a time.
	next = max(next, floor)

	tmpDir := filepath.Join(gensRoot, tmpPrefix+genDirName(next))
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return 0, fmt.Errorf("core: create temp generation: %w", err)
	}
	defer os.RemoveAll(tmpDir)
	man := GenerationManifest{Generation: next}
	if err := fill(tmpDir, &man); err != nil {
		return 0, err
	}
	manPath := filepath.Join(tmpDir, manifestName)
	if err := s.hook.At(StepManifestWrite, manPath); err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := durable.WriteSync(manPath, data); err != nil {
		return 0, fmt.Errorf("core: write manifest: %w", err)
	}
	genPath := filepath.Join(gensRoot, genDirName(next))
	if err := s.hook.At(StepGenCommit, genPath); err != nil {
		return 0, err
	}
	if err := durable.Rename(tmpDir, genPath); err != nil {
		return 0, fmt.Errorf("core: commit generation %d: %w", next, err)
	}
	if err := s.setCurrent(next); err != nil {
		return 0, err
	}
	s.prune(next)
	return next, nil
}

// writeModelFile streams one model to path (fsynced), returning its
// SHA-256 hex digest.
func (s *Store) writeModelFile(path string, m Model) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("core: create model file: %w", err)
	}
	h := sha256.New()
	if err := m.Save(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return "", err
	}
	if err := s.hook.At(StepModelSync, path); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("core: sync model file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prune removes committed generations older than the newest keep()-many.
// Best effort: a prune failure never fails the save that triggered it.
func (s *Store) prune(newest uint64) {
	gens, err := s.Generations()
	if err != nil || len(gens) <= s.keep() {
		return
	}
	for _, g := range gens[:len(gens)-s.keep()] {
		if g == newest {
			continue
		}
		os.RemoveAll(filepath.Join(s.dir, generationsDir, genDirName(g)))
	}
}

// GenerationError records why one generation was rejected during a load.
type GenerationError struct {
	Generation uint64 `json:"generation"`
	Err        string `json:"error"`
}

// LoadReport describes which generation a Load served and what it had to
// skip to get there.
type LoadReport struct {
	// Generation is the generation actually loaded.
	Generation uint64 `json:"generation"`
	// FellBack is true when the preferred (CURRENT / newest) generation
	// failed verification and an older one was served instead.
	FellBack bool `json:"fell_back,omitempty"`
	// Rejected lists every generation that failed verification, newest
	// first.
	Rejected []GenerationError `json:"rejected,omitempty"`
	// Fingerprint is the content identity of the loaded generation (see
	// GenerationManifest.Fingerprint).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Load reads the newest verifiable generation: checksums are recomputed
// for every model file and a mismatch (bit rot, torn write) rejects the
// whole generation and falls back to the next older one. The report says
// what was served and what was skipped.
func (s *Store) Load() (*Ensemble, *LoadReport, error) {
	gens, err := s.Generations()
	if err != nil {
		return nil, nil, err
	}
	if len(gens) == 0 {
		return nil, nil, fmt.Errorf("core: registry %s holds no committed generation", s.dir)
	}
	start := s.preferred(gens)
	rep := &LoadReport{}
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		if gen > start {
			continue
		}
		e, man, err := s.loadGeneration(gen)
		if err != nil {
			rep.Rejected = append(rep.Rejected, GenerationError{Generation: gen, Err: err.Error()})
			continue
		}
		rep.Generation = gen
		rep.FellBack = len(rep.Rejected) > 0
		rep.Fingerprint = man.Fingerprint()
		return e, rep, nil
	}
	return nil, nil, fmt.Errorf("core: registry %s: no loadable generation (%d rejected, newest: %s)",
		s.dir, len(rep.Rejected), rep.Rejected[0].Err)
}

// loadGeneration verifies and decodes one committed generation.
func (s *Store) loadGeneration(gen uint64) (*Ensemble, *GenerationManifest, error) {
	dir := filepath.Join(s.dir, generationsDir, genDirName(gen))
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, err
	}
	if man.Generation != 0 && man.Generation != gen {
		return nil, nil, fmt.Errorf("manifest generation %d does not match directory %d", man.Generation, gen)
	}
	e := &Ensemble{}
	for _, entry := range man.Models {
		raw, err := os.ReadFile(filepath.Join(dir, entry.File))
		if err != nil {
			return nil, nil, fmt.Errorf("read model %s: %w", entry.Name, err)
		}
		if entry.SHA256 == "" {
			return nil, nil, fmt.Errorf("model %s: no checksum in the manifest", entry.Name)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != entry.SHA256 {
			return nil, nil, fmt.Errorf("model %s: checksum mismatch (manifest %.12s…, file %.12s…)",
				entry.Name, entry.SHA256, got)
		}
		m, err := LoadModel(entry.Name, entry.Kind, bytes.NewReader(raw))
		if err != nil {
			return nil, nil, fmt.Errorf("load model %s: %w", entry.Name, err)
		}
		e.Models = append(e.Models, m)
	}
	if len(e.Models) == 0 {
		return nil, nil, fmt.Errorf("generation %d holds no models", gen)
	}
	return e, man, nil
}

// readManifest reads and parses one manifest.json.
func readManifest(path string) (*GenerationManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var man GenerationManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("parse manifest: %w", err)
	}
	return &man, nil
}

// CurrentGeneration resolves the generation a Load would prefer: CURRENT
// when it names a committed generation, otherwise the newest committed one.
// Zero (with ok=false) when the store holds no committed generations.
func (s *Store) CurrentGeneration() (gen uint64, ok bool) {
	gens, err := s.Generations()
	if err != nil || len(gens) == 0 {
		return 0, false
	}
	return s.preferred(gens), true
}

// preferred is the one copy of the rule CurrentGeneration documents,
// applied to a non-empty listing: a missing or stale CURRENT (a crash
// between the two commits) yields the newest generation.
func (s *Store) preferred(gens []uint64) uint64 {
	if cur, ok := s.current(); ok && slices.Contains(gens, cur) {
		return cur
	}
	return gens[len(gens)-1]
}

// Manifest reads one committed generation's manifest. It is the first half
// of the replication fetch protocol: a follower downloads this listing,
// then each named file, and verifies the SHA256s before committing.
func (s *Store) Manifest(gen uint64) (*GenerationManifest, error) {
	man, err := readManifest(filepath.Join(s.dir, generationsDir, genDirName(gen), manifestName))
	if err != nil {
		return nil, fmt.Errorf("core: generation %d: %w", gen, err)
	}
	return man, nil
}

// OpenModelFile opens one model file of a committed generation for
// streaming. file must exactly match a manifest entry's File field — any
// other name (in particular anything with a path separator) is refused, so
// the replication endpoint cannot be walked out of the generation
// directory.
func (s *Store) OpenModelFile(gen uint64, file string) (io.ReadCloser, error) {
	man, err := s.Manifest(gen)
	if err != nil {
		return nil, err
	}
	for _, e := range man.Models {
		if e.File == file {
			f, err := os.Open(filepath.Join(s.dir, generationsDir, genDirName(gen), file))
			if err != nil {
				return nil, fmt.Errorf("core: open model file: %w", err)
			}
			return f, nil
		}
	}
	return nil, fmt.Errorf("core: generation %d has no model file %q", gen, file)
}

// LoadGeneration verifies (checksums recomputed) and decodes one specific
// committed generation, returning its manifest alongside the models.
func (s *Store) LoadGeneration(gen uint64) (*Ensemble, *GenerationManifest, error) {
	e, man, err := s.loadGeneration(gen)
	if err != nil {
		return nil, nil, fmt.Errorf("core: generation %d: %w", gen, err)
	}
	return e, man, nil
}

// Reference reads one committed generation's drift-reference sidecar (the
// training-time input distribution snapshot). Nil with no error when the
// generation was saved without one — uploads and replication imports have
// no reference, and the drift monitor self-arms from live traffic instead.
func (s *Store) Reference(gen uint64) ([]byte, error) {
	man, err := s.Manifest(gen)
	if err != nil {
		return nil, err
	}
	if man.ReferenceFile == "" {
		return nil, nil
	}
	if !plainFileName(man.ReferenceFile) {
		return nil, fmt.Errorf("core: generation %d: hostile reference file name %q", gen, man.ReferenceFile)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, generationsDir, genDirName(gen), man.ReferenceFile))
	if err != nil {
		return nil, fmt.Errorf("core: generation %d: read drift reference: %w", gen, err)
	}
	return data, nil
}

// setCurrent is the CURRENT flip every commit ends with. Called only by
// commit, with saveMu held.
func (s *Store) setCurrent(gen uint64) error {
	curPath := filepath.Join(s.dir, currentName)
	if err := s.hook.At(StepCurrentCommit, curPath); err != nil {
		return err
	}
	if err := durable.WriteFile(curPath, []byte(strconv.FormatUint(gen, 10)+"\n")); err != nil {
		return fmt.Errorf("core: commit CURRENT: %w", err)
	}
	return nil
}

// ImportGeneration commits a generation replicated from a peer. man is the
// peer's manifest; fetch opens each named model file (typically an HTTP GET
// against the peer's /api/v1/generations/{id}/files/{file}). Every file is
// streamed into a temp directory while its SHA-256 is recomputed, and a
// mismatch against the manifest — a torn transfer, a corrupt peer, bit rot
// in flight — aborts the import before anything is committed: the rename
// that makes the generation visible only happens after every checksum
// verified. The committed generation number is local (the peer's number
// when the local history hasn't passed it, the next free number otherwise);
// the manifest is rewritten to match, which leaves the fingerprint — the
// content identity replication converges on — untouched.
func (s *Store) ImportGeneration(man *GenerationManifest, fetch func(file string) (io.ReadCloser, error)) (uint64, error) {
	return s.commit(man.Generation, func(tmpDir string, local *GenerationManifest) error {
		if err := s.copyModels(tmpDir, man.Models, fetch); err != nil {
			return fmt.Errorf("core: import: %w", err)
		}
		// The canary verdict is content provenance and travels with the
		// models; the drift-reference sidecar does not replicate (followers
		// self-arm from their own traffic), so ReferenceFile is dropped.
		local.Models, local.Canary = man.Models, man.Canary
		return nil
	})
}

// Restore commits generation gen's content again as the newest generation
// and flips CURRENT to it, returning the new number: the registry half of a
// rollback. CURRENT never moves back, so the restored set sits at the
// highest number, and replication (lifecycle.ShouldAdopt) carries it to
// every peer instead of bringing the rejected one back. Each model file is
// copied with its SHA-256 recomputed, so a rotted source commits nothing.
// The canary verdict and the drift-reference sidecar come along, so the
// restored set re-arms its own reference.
func (s *Store) Restore(gen uint64) (uint64, error) {
	return s.commit(0, func(tmpDir string, man *GenerationManifest) error {
		src, err := s.Manifest(gen)
		if err != nil {
			return err
		}
		ref, err := s.Reference(gen)
		if err != nil {
			return err
		}
		srcDir := filepath.Join(s.dir, generationsDir, genDirName(gen))
		if err := s.copyModels(tmpDir, src.Models, func(file string) (io.ReadCloser, error) {
			return os.Open(filepath.Join(srcDir, file))
		}); err != nil {
			return fmt.Errorf("core: restore generation %d: %w", gen, err)
		}
		man.Models = src.Models
		return addExtra(tmpDir, man, &GenerationExtra{Canary: src.Canary, Reference: ref})
	})
}

// copyModels is the per-model loop of ImportGeneration and Restore: every
// entry must carry a checksum, and each file, after the model-write hook,
// is streamed from open into tmpDir and verified against its checksum.
func (s *Store) copyModels(tmpDir string, models []ManifestEntry, open func(file string) (io.ReadCloser, error)) error {
	if len(models) == 0 {
		return fmt.Errorf("manifest holds no models")
	}
	for _, entry := range models {
		if entry.SHA256 == "" {
			return fmt.Errorf("model %s has no checksum; an unverifiable generation cannot be copied", entry.Name)
		}
		if err := s.hook.At(StepModelWrite, filepath.Join(tmpDir, entry.File)); err != nil {
			return err
		}
		if err := fetchVerified(tmpDir, entry, open); err != nil {
			return err
		}
	}
	return nil
}

// fetchVerified streams one model file from fetch into dir, fsyncs it, and
// fails on any checksum mismatch against the manifest entry.
func fetchVerified(dir string, entry ManifestEntry, fetch func(file string) (io.ReadCloser, error)) error {
	if !plainFileName(entry.File) {
		return fmt.Errorf("model %s has hostile file name %q", entry.Name, entry.File)
	}
	src, err := fetch(entry.File)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", entry.File, err)
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(dir, entry.File))
	if err != nil {
		return fmt.Errorf("create %s: %w", entry.File, err)
	}
	h := sha256.New()
	_, cpErr := io.Copy(io.MultiWriter(dst, h), src)
	if cpErr != nil {
		dst.Close()
		return fmt.Errorf("stream %s: %w", entry.File, cpErr)
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return fmt.Errorf("sync %s: %w", entry.File, err)
	}
	if err := dst.Close(); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != entry.SHA256 {
		return fmt.Errorf("model %s checksum mismatch (manifest %.12s…, copy %.12s…): torn or corrupt copy",
			entry.Name, entry.SHA256, got)
	}
	return nil
}

// SaveEnsemble writes every model of e into dir (created if missing) as a
// new committed generation.
func SaveEnsemble(dir string, e *Ensemble) error {
	_, err := OpenStore(dir).Save(e)
	return err
}

// LoadEnsemble reads the newest verifiable generation of a registry
// written by SaveEnsemble, discarding the load report. Callers that must surface fallbacks use Store.Load.
func LoadEnsemble(dir string) (*Ensemble, error) {
	e, _, err := OpenStore(dir).Load()
	return e, err
}
