// Package joblog is the durable half of the fleet-telemetry story: an
// append-only, crash-safe, on-disk job store that absorbs the Darshan
// record stream the AIIO service continuously learns from (the 825 GB /
// 6.6 M-job archive of Table 1, as a write-ahead log instead of an
// in-memory Dataset).
//
// Layout:
//
//	dir/
//	  MANIFEST            ← JSON: sealed segments with SHA-256, compaction
//	                        history (committed via tmp + fsync + rename)
//	  CURSOR              ← "seq\n": jobs ≤ seq are incorporated in a
//	                        committed model generation (atomic rename)
//	  segments/
//	    00000001.wal      ← sealed (immutable, checksummed in MANIFEST)
//	    00000002.wal      ← active (append-only; not yet in MANIFEST)
//	  quarantine/
//	    quarantine.log    ← checksum-failing records, kept not dropped
//
// Records are framed as length + CRC-32C + payload (codec.go). The
// durability contract: a job is acknowledged only after Sync returns, and
// every acknowledged job survives any crash exactly once. Concurrent Sync
// calls group-commit (leader/follower fsync coalescing), so parallel
// ingest streams share one disk flush per batch without weakening the
// ack-after-fsync ordering. Recovery
// truncates a torn tail (an incomplete or unframeable trailing write),
// quarantines checksum-failing records that are still cleanly framed, and
// deduplicates replayed appends by job hash, so client retries after a
// lost ack are idempotent.
//
// Compaction (compact.go) rewrites the sealed segments through a chunked
// sort + k-way heap merge, dropping physical duplicates, in bounded
// memory — the store operates on datasets larger than RAM. The in-memory
// footprint that remains is the dedup index, ~24 bytes per unique job
// (a 128-bit job hash plus its sequence number).
package joblog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/durable"
)

const (
	manifestName  = "MANIFEST"
	cursorName    = "CURSOR"
	segmentsDir   = "segments"
	quarantineDir = "quarantine"
	quarantineLog = "quarantine.log"
	segmentExt    = ".wal"
	tmpPrefix     = durable.TmpPrefix

	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 8 << 20
)

// Durable-step hook names, in the order an append/rotate/compact hits
// them. A fault-injection hook (faults.CrashAfterSteps / CrashAtStep)
// aborts the operation at one of these points to simulate a crash landing
// there; production stores have no hook. The names are disjoint from the
// model registry's (core.Step*), so one AIIO_CRASH spec names one step.
const (
	StepAppendWrite     = "append-write"     // before writing one record's frame
	StepAppendSync      = "append-sync"      // before fsyncing the active segment
	StepSealSync        = "seal-sync"        // before fsyncing a segment being sealed
	StepSealManifest    = "seal-manifest"    // before committing the manifest that seals it
	StepCompactRun      = "compact-run"      // before writing one sorted run
	StepCompactMerge    = "compact-merge"    // before the k-way merge starts
	StepCompactSeal     = "compact-seal"     // before renaming one merged segment into place
	StepCompactManifest = "compact-manifest" // before committing the compacted manifest
	StepCompactCleanup  = "compact-cleanup"  // before deleting one superseded segment
	StepCursorCommit    = "cursor-commit"    // before committing the retrain cursor
)

// segmentInfo describes one sealed (immutable) segment in the manifest.
type segmentInfo struct {
	File   string `json:"file"`
	Frames int    `json:"frames"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

type manifest struct {
	Sealed             []segmentInfo `json:"sealed"`
	Compactions        int           `json:"compactions,omitempty"`
	LastCompactionUnix int64         `json:"last_compaction_unix,omitempty"`
}

// Options tunes a store. The zero value is production-ready.
type Options struct {
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one opened (DefaultSegmentBytes when 0). Sealing fsyncs the
	// segment and commits it — with its SHA-256 — to the manifest.
	SegmentBytes int64
	// SyncEvery, when > 0, fsyncs the active segment automatically after
	// every N appends. Regardless of its value, Sync must be called before
	// acknowledging a batch: only synced records are durable.
	SyncEvery int
	// ChunkRecords bounds how many records a compaction sorts in memory at
	// once (DefaultChunkRecords when 0).
	ChunkRecords int
}

// RecoveryReport says what Open had to repair.
type RecoveryReport struct {
	// TornBytes is how many trailing bytes were truncated as torn writes.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Quarantined is how many checksum-failing or undecodable records were
	// moved to the quarantine log during this recovery.
	Quarantined int `json:"quarantined,omitempty"`
	// ResealedSegments counts segments that were committed to the manifest
	// by recovery (a crash landed between seal-sync and seal-manifest).
	ResealedSegments int `json:"resealed_segments,omitempty"`
	// RemovedDebris counts swept temp files and superseded segments left
	// by a crashed compaction.
	RemovedDebris int `json:"removed_debris,omitempty"`
	// DuplicateFrames counts physical duplicate frames found on disk
	// (replayed appends, crash-interrupted compactions); they are masked
	// by the dedup index until the next compaction drops them.
	DuplicateFrames int `json:"duplicate_frames,omitempty"`
}

// Store is a crash-safe append-only job store rooted at a directory.
type Store struct {
	dir  string
	opts Options

	// hook runs before each durable step and aborts it on error — the
	// fault-injection seam for crash drills.
	hook durable.Hook

	// compactMu serializes Compact against in-flight Scans: Scan holds the
	// read side while it walks segment files outside mu, so compaction
	// cannot delete a superseded segment out from under it. Lock order is
	// always compactMu before mu.
	compactMu sync.RWMutex

	mu          sync.Mutex
	active      *os.File
	activeBuf   []byte // frames appended but not yet flushed to the file
	activeIdx   uint64
	activeBytes int64 // file bytes + buffered bytes
	man         manifest
	nextSegIdx  uint64
	nextSeq     uint64
	cursor      uint64
	index       map[hashKey]uint64 // payload hash → first (lowest) seq
	records     int                // unique records
	pending     int                // unique records past the cursor
	dupFrames   int                // physical duplicate frames on disk
	quarantined int                // lifetime quarantine entries
	sealedBytes int64
	recovery    RecoveryReport
	encBuf      []byte

	// Group commit. Every staged append gets the next appendSeq; durableSeq
	// is the highest appendSeq known fsynced. A Sync caller whose target is
	// already ≤ durableSeq returns immediately; otherwise one caller becomes
	// the leader — it flushes the staged frames, notes the covered appendSeq,
	// drops mu for the fsync itself, then publishes durableSeq and broadcasts
	// syncDone. Callers that arrive while a leader's fsync is in flight wait
	// on syncDone: one disk flush acknowledges every append staged before it
	// (leader/follower group commit), so N concurrent ingest streams cost
	// ~1 fsync per coalesced batch instead of N.
	appendSeq    uint64
	durableSeq   uint64
	syncInFlight bool
	syncDone     *sync.Cond // signaled when a leader's fsync completes (ok or not)
}

// Open opens (creating if needed) the store at dir, running recovery:
// temp debris is swept, sealed segments are verified against their
// manifest checksums, torn tails are truncated, corrupt records are
// quarantined, and the dedup index is rebuilt.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		nextSeq: 1,
		index:   make(map[hashKey]uint64),
	}
	s.syncDone = sync.NewCond(&s.mu)
	for _, d := range []string{dir, filepath.Join(dir, segmentsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("joblog: create %s: %w", d, err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir is the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetHook installs a fault-injection hook called before every durable
// step. A nil hook (the default) is a no-op.
func (s *Store) SetHook(h durable.Hook) { s.hook = h }

func (s *Store) segPath(idx uint64) string {
	return filepath.Join(s.dir, segmentsDir, fmt.Sprintf("%08d%s", idx, segmentExt))
}

func segIndex(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segmentExt)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover is the Open-time recovery state machine:
//
//  1. sweep .tmp-* debris from crashed seals and compactions
//  2. load MANIFEST; segments it lists are the sealed, immutable set
//  3. remove on-disk segments ≤ max(manifest index) that the manifest
//     does not list — superseded by a committed compaction whose cleanup
//     was interrupted
//  4. scan every sealed segment; a checksum mismatch against the manifest
//     demotes the segment to a record-by-record salvage (valid frames
//     kept, corrupt ones quarantined, the file rewritten via truncate or
//     tmp + fsync + rename so a crash mid-recovery never loses a frame
//     that was durable before recovery started)
//  5. segments > max(manifest index) are unsealed tails (a crash landed
//     between rotation and its manifest commit, or mid-compaction):
//     salvage-scan each, truncate the torn tail of the last, reseal all
//     but the last into the manifest, and adopt the last as the active
//     segment
//  6. rebuild the dedup index and sequence counter from the surviving
//     frames; read CURSOR
func (s *Store) recover() error {
	segRoot := filepath.Join(s.dir, segmentsDir)
	entries, err := os.ReadDir(segRoot)
	if err != nil {
		return fmt.Errorf("joblog: read segments: %w", err)
	}
	// (1) sweep temp debris.
	var segIdxs []uint64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(segRoot, e.Name()))
			s.recovery.RemovedDebris++
			continue
		}
		if idx, ok := segIndex(e.Name()); ok {
			segIdxs = append(segIdxs, idx)
		}
	}
	sort.Slice(segIdxs, func(i, j int) bool { return segIdxs[i] < segIdxs[j] })

	// (2) load the manifest.
	manChanged := false
	if data, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err == nil {
		if err := json.Unmarshal(data, &s.man); err != nil {
			return fmt.Errorf("joblog: parse manifest: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("joblog: read manifest: %w", err)
	}
	inManifest := make(map[uint64]segmentInfo, len(s.man.Sealed))
	var maxSealed uint64
	for _, si := range s.man.Sealed {
		idx, ok := segIndex(si.File)
		if !ok {
			return fmt.Errorf("joblog: manifest names foreign segment %q", si.File)
		}
		inManifest[idx] = si
		if idx > maxSealed {
			maxSealed = idx
		}
	}

	// (3) drop superseded segments; collect unsealed tails.
	var tails []uint64
	for _, idx := range segIdxs {
		if _, ok := inManifest[idx]; ok {
			continue
		}
		if idx <= maxSealed {
			os.Remove(s.segPath(idx))
			s.recovery.RemovedDebris++
			continue
		}
		tails = append(tails, idx)
	}

	// Drop manifest entries whose files vanished (should not happen; a
	// missing sealed segment is data loss we can only surface, not undo).
	kept := s.man.Sealed[:0]
	for _, si := range s.man.Sealed {
		if _, err := os.Stat(filepath.Join(segRoot, si.File)); err == nil {
			kept = append(kept, si)
		} else {
			manChanged = true
		}
	}
	s.man.Sealed = kept

	// (4) verify + scan sealed segments.
	for i := range s.man.Sealed {
		si := &s.man.Sealed[i]
		path := filepath.Join(segRoot, si.File)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("joblog: read sealed segment %s: %w", si.File, err)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) == si.SHA256 {
			if err := s.indexFrames(data, si.File); err != nil {
				return err
			}
			s.sealedBytes += si.Bytes
			continue
		}
		// Checksum mismatch: salvage record by record.
		clean, frames, err := s.salvage(data, si.File)
		if err != nil {
			return err
		}
		if err := rewriteSegment(path, clean, data); err != nil {
			return fmt.Errorf("joblog: rewrite salvaged segment %s: %w", si.File, err)
		}
		newSum := sha256.Sum256(clean)
		si.SHA256 = hex.EncodeToString(newSum[:])
		si.Bytes = int64(len(clean))
		si.Frames = frames
		s.sealedBytes += si.Bytes
		manChanged = true
	}

	// (5) unsealed tails: salvage each; all but the last are resealed,
	// the last becomes the active segment.
	for i, idx := range tails {
		path := s.segPath(idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("joblog: read segment %s: %w", path, err)
		}
		clean, frames, err := s.salvage(data, filepath.Base(path))
		if err != nil {
			return err
		}
		if len(clean) != len(data) {
			if err := rewriteSegment(path, clean, data); err != nil {
				return fmt.Errorf("joblog: truncate torn segment %s: %w", path, err)
			}
		}
		last := i == len(tails)-1
		if !last {
			sum := sha256.Sum256(clean)
			s.man.Sealed = append(s.man.Sealed, segmentInfo{
				File:   filepath.Base(path),
				Frames: frames,
				Bytes:  int64(len(clean)),
				SHA256: hex.EncodeToString(sum[:]),
			})
			s.sealedBytes += int64(len(clean))
			s.recovery.ResealedSegments++
			manChanged = true
			continue
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("joblog: open active segment: %w", err)
		}
		s.active = f
		s.activeIdx = idx
		s.activeBytes = int64(len(clean))
	}

	if n := len(segIdxs); n > 0 {
		s.nextSegIdx = segIdxs[n-1] + 1
	} else {
		s.nextSegIdx = 1
	}
	if maxSealed >= s.nextSegIdx {
		s.nextSegIdx = maxSealed + 1
	}

	// (6) cursor + quarantine count.
	if data, err := os.ReadFile(filepath.Join(s.dir, cursorName)); err == nil {
		if n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); err == nil {
			s.cursor = n
		}
	}
	// Floor nextSeq at cursor+1: if the highest-seq frames were quarantined
	// or lost to a torn tail after CURSOR advanced, a rebuilt nextSeq could
	// regress below the durable cursor and new appends would be assigned
	// seq ≤ cursor — stored but invisible to DrainPending forever.
	if s.cursor+1 > s.nextSeq {
		s.nextSeq = s.cursor + 1
	}
	s.recomputePendingLocked()
	// The quarantine log already holds whatever salvage wrote this pass, so
	// this is an assignment, not an addition.
	s.quarantined = countQuarantine(filepath.Join(s.dir, quarantineDir, quarantineLog))

	if manChanged {
		if err := s.commitManifest(""); err != nil {
			return err
		}
	}
	return nil
}

// indexFrames walks a verified segment's frames, feeding the dedup index.
// A verified segment (manifest checksum matched) can still carry physical
// duplicates — replayed appends — which are counted, not indexed twice.
func (s *Store) indexFrames(data []byte, file string) error {
	off := 0
	for off < len(data) {
		res, payload, size := parseFrame(data[off:])
		if res != frameOK {
			// A sealed segment whose SHA-256 matched cannot hold a bad
			// frame unless the manifest itself was written around one —
			// treat like salvage would.
			return fmt.Errorf("joblog: verified segment %s has unparseable frame at offset %d", file, off)
		}
		seq, _, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("joblog: verified segment %s has undecodable payload at offset %d: %v", file, off, err)
		}
		s.noteFrame(payloadHash(payload), seq)
		off += size
	}
	return nil
}

// noteFrame registers one on-disk frame with the dedup index.
func (s *Store) noteFrame(hash hashKey, seq uint64) {
	if first, ok := s.index[hash]; ok {
		if seq < first {
			s.index[hash] = seq
		}
		s.dupFrames++
		s.recovery.DuplicateFrames++
	} else {
		s.index[hash] = seq
		s.records++
	}
	if seq >= s.nextSeq {
		s.nextSeq = seq + 1
	}
}

// salvage scans raw segment bytes record by record: valid frames are kept
// (and indexed), checksum-failing or undecodable ones are quarantined, and
// an unframeable tail is dropped (torn-write truncation). It returns the
// clean bytes and the number of surviving frames.
func (s *Store) salvage(data []byte, file string) (clean []byte, frames int, err error) {
	clean = make([]byte, 0, len(data))
	off := 0
	for off < len(data) {
		res, payload, size := parseFrame(data[off:])
		switch res {
		case frameOK:
			if seq, _, derr := decodePayload(payload); derr != nil {
				if qerr := s.quarantine(payload, fmt.Sprintf("%s@%d: %v", file, off, derr)); qerr != nil {
					return nil, 0, qerr
				}
			} else {
				s.noteFrame(payloadHash(payload), seq)
				clean = append(clean, data[off:off+size]...)
				frames++
			}
			off += size
		case frameCorrupt:
			if qerr := s.quarantine(payload, fmt.Sprintf("%s@%d: crc mismatch", file, off)); qerr != nil {
				return nil, 0, qerr
			}
			off += size
		case frameTorn:
			s.recovery.TornBytes += int64(len(data) - off)
			return clean, frames, nil
		}
	}
	return clean, frames, nil
}

// quarantine appends one bad record's bytes to the quarantine log: kept,
// not dropped, so an operator (or a future decoder fix) can recover them.
func (s *Store) quarantine(payload []byte, reason string) error {
	path := filepath.Join(s.dir, quarantineDir, quarantineLog)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("joblog: open quarantine log: %w", err)
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "# quarantined time=%d bytes=%d reason=%q\n%s\n",
		time.Now().Unix(), len(payload), reason, hex.EncodeToString(payload)); err != nil {
		return fmt.Errorf("joblog: write quarantine log: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("joblog: sync quarantine log: %w", err)
	}
	s.quarantined++
	s.recovery.Quarantined++
	return nil
}

// countQuarantine counts entries in the quarantine log.
func countQuarantine(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "# quarantined ")
}

// Recovery reports what Open repaired.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// AppendResult reports one append.
type AppendResult struct {
	// Seq is the record's sequence number (the original's for a duplicate).
	Seq uint64
	// Duplicate is true when the job hash was already present: a client
	// retry or a re-ingested file. Nothing was written.
	Duplicate bool
}

// QuarantineRecord routes a record that failed ingest-boundary validation
// (NaN/Inf counters, Record.Validate failure) to the quarantine log
// instead of the WAL, so it can never poison incremental retraining.
func (s *Store) QuarantineRecord(rec *darshan.Record, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload := encodePayload(nil, 0, rec)
	return s.quarantine(payload, "ingest: "+reason)
}

// QuarantineNote records a boundary rejection whose raw record is not
// recoverable — the text parser refused it before a Record existed — so
// only the reason is preserved, with an empty payload.
func (s *Store) QuarantineNote(reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantine(nil, "ingest: "+reason)
}

// Append stages one record in the active segment. The record is NOT
// durable until Sync returns (or the SyncEvery policy fires); callers must
// not acknowledge it before then. Appending a job whose hash is already
// present is a no-op reported as Duplicate — retries are idempotent. The
// hash is a 128-bit truncated SHA-256 (see hashKey in codec.go), so two
// distinct jobs colliding — which would silently swallow the second — is
// cryptographically negligible, not merely unlikely.
func (s *Store) Append(rec *darshan.Record) (AppendResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.encBuf = encodePayload(s.encBuf[:0], s.nextSeq, rec)
	hash := payloadHash(s.encBuf)
	if first, ok := s.index[hash]; ok {
		return AppendResult{Seq: first, Duplicate: true}, nil
	}
	if s.active == nil {
		if err := s.openActive(); err != nil {
			return AppendResult{}, err
		}
	}
	if err := s.hook.At(StepAppendWrite, s.segPath(s.activeIdx)); err != nil {
		return AppendResult{}, err
	}
	frame := appendFrame(nil, s.encBuf)
	s.activeBuf = append(s.activeBuf, frame...)
	seq := s.nextSeq
	s.nextSeq++
	s.index[hash] = seq
	s.records++
	s.pending++ // seq == nextSeq > cursor always (recovery floors nextSeq)
	s.activeBytes += int64(len(frame))
	s.appendSeq++
	res := AppendResult{Seq: seq}
	if s.opts.SyncEvery > 0 && s.appendSeq-s.durableSeq >= uint64(s.opts.SyncEvery) {
		if err := s.syncLocked(); err != nil {
			return res, err
		}
	}
	if s.activeBytes >= s.opts.SegmentBytes {
		if err := s.sealLocked(); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (s *Store) openActive() error {
	idx := s.nextSegIdx
	f, err := os.OpenFile(s.segPath(idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("joblog: create segment: %w", err)
	}
	s.active = f
	s.activeIdx = idx
	s.activeBytes = 0
	s.nextSegIdx++
	durable.SyncDir(filepath.Join(s.dir, segmentsDir))
	return nil
}

// flushLocked writes the staged frames to the active segment file.
func (s *Store) flushLocked() error {
	if len(s.activeBuf) == 0 {
		return nil
	}
	if s.active == nil {
		return fmt.Errorf("joblog: staged bytes with no active segment")
	}
	if _, err := s.active.Write(s.activeBuf); err != nil {
		return fmt.Errorf("joblog: write segment: %w", err)
	}
	s.activeBuf = s.activeBuf[:0]
	return nil
}

// Sync makes every staged append durable: staged frames are written and
// the active segment is fsynced. Only after Sync returns may the appended
// jobs be acknowledged.
//
// Concurrent Sync calls group-commit: the first caller past the durable
// watermark becomes the fsync leader and releases the store lock for the
// disk flush itself; callers arriving during that flush park as followers
// and are acknowledged by the same fsync when it covers their appends.
// Appends staged after the leader flushed are NOT covered — such a
// follower re-runs as the next leader — so the contract is exact: Sync
// never returns nil unless every append staged before the call is on disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	target := s.appendSeq
	for s.durableSeq < target {
		if s.syncInFlight {
			// Follower: a leader's fsync is in flight. It may cover target
			// (we parked after its flush) or not (we staged after its flush,
			// or it failed) — re-check on wake and retry as leader if needed.
			s.syncDone.Wait()
			continue
		}
		if err := s.leadSyncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// leadSyncLocked runs one group commit as the leader: flush the staged
// frames, record the appendSeq the flush covers, fsync with mu released,
// then publish the new durable watermark and wake the followers. Called
// with mu held; returns with mu held.
func (s *Store) leadSyncLocked() error {
	if s.active == nil && len(s.activeBuf) == 0 {
		// Everything staged was already sealed (sealing fsyncs).
		s.durableSeq = s.appendSeq
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	covered := s.appendSeq
	if err := s.hook.At(StepAppendSync, s.segPath(s.activeIdx)); err != nil {
		return err
	}
	// The fsync itself runs without mu so appenders keep staging — that
	// concurrency is the whole point of group commit. sealLocked and Close
	// wait for !syncInFlight, so f cannot be closed or swapped under us.
	f := s.active
	s.syncInFlight = true
	s.mu.Unlock()
	err := f.Sync()
	s.mu.Lock()
	s.syncInFlight = false
	s.syncDone.Broadcast()
	if err != nil {
		return fmt.Errorf("joblog: sync segment: %w", err)
	}
	if covered > s.durableSeq {
		s.durableSeq = covered
	}
	return nil
}

// waitSyncIdleLocked blocks until no leader fsync is in flight. Anything
// that closes or replaces the active segment file must call it first.
func (s *Store) waitSyncIdleLocked() {
	for s.syncInFlight {
		s.syncDone.Wait()
	}
}

// sealLocked finalizes the active segment: flush, fsync, checksum, commit
// to the manifest. The next append opens a fresh segment.
func (s *Store) sealLocked() error {
	s.waitSyncIdleLocked()
	if s.active == nil {
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	path := s.segPath(s.activeIdx)
	if err := s.hook.At(StepSealSync, path); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("joblog: sync sealing segment: %w", err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("joblog: close sealing segment: %w", err)
	}
	s.active = nil
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("joblog: checksum sealing segment: %w", err)
	}
	frames := 0
	for off := 0; off < len(data); {
		_, _, size := parseFrame(data[off:])
		if size == 0 {
			break
		}
		frames++
		off += size
	}
	sum := sha256.Sum256(data)
	s.man.Sealed = append(s.man.Sealed, segmentInfo{
		File:   filepath.Base(path),
		Frames: frames,
		Bytes:  int64(len(data)),
		SHA256: hex.EncodeToString(sum[:]),
	})
	s.sealedBytes += int64(len(data))
	s.activeBytes = 0
	s.durableSeq = s.appendSeq // sealing fsynced every staged append
	return s.commitManifest(StepSealManifest)
}

// commitManifest commits the manifest as one durable file write. step,
// when non-empty, is the hook point name.
func (s *Store) commitManifest(step string) error {
	path := filepath.Join(s.dir, manifestName)
	if step != "" {
		if err := s.hook.At(step, path); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	if err := durable.WriteFile(path, data); err != nil {
		return fmt.Errorf("joblog: commit manifest: %w", err)
	}
	return nil
}

// Rotate seals the active segment now (if any), regardless of size.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealLocked()
}

// Close syncs and closes the store. The store remains reopenable; Close
// does not seal the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	// syncLocked made our target durable, but a later caller's leader fsync
	// may still be in flight on the file we are about to close.
	s.waitSyncIdleLocked()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	s.activeBuf = s.activeBuf[:0]
	return err
}

// Scan streams every unique record, in segment order, calling yield with
// the record's sequence number until yield returns false. Physical
// duplicate frames (replays, crash-interrupted compactions) are masked by
// the dedup index: exactly one frame per job hash is yielded. Memory is
// bounded by one segment. Scan holds the compaction read-guard for its
// duration: a concurrent Compact blocks rather than deleting a superseded
// segment out from under the walk (which would abort the scan mid-way —
// e.g. a background incremental retrain racing `aiio joblog -compact`).
func (s *Store) Scan(yield func(seq uint64, rec *darshan.Record) bool) error {
	s.compactMu.RLock()
	defer s.compactMu.RUnlock()
	s.mu.Lock()
	// Flush staged frames so the scan covers them (no fsync needed — the
	// scan reads through the page cache).
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	files := make([]string, 0, len(s.man.Sealed)+1)
	for _, si := range s.man.Sealed {
		files = append(files, filepath.Join(s.dir, segmentsDir, si.File))
	}
	if s.active != nil {
		files = append(files, s.segPath(s.activeIdx))
	}
	s.mu.Unlock()

	// yielded guards against byte-identical physical duplicates — a crashed
	// compaction leaves the same (hash, seq) frame in both the old and new
	// segment, and index[hash] == seq matches both copies.
	yielded := make(map[hashKey]struct{})
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("joblog: scan %s: %w", path, err)
		}
		off := 0
		for off < len(data) {
			res, payload, size := parseFrame(data[off:])
			if res != frameOK {
				// Post-recovery segments are clean; anything else here is
				// concurrent external corruption. Stop at this segment.
				break
			}
			seq, rec, err := decodePayload(payload)
			if err != nil {
				off += size
				continue
			}
			h := payloadHash(payload)
			s.mu.Lock()
			first := s.index[h]
			s.mu.Unlock()
			if first == seq {
				if _, dup := yielded[h]; !dup {
					yielded[h] = struct{}{}
					if !yield(seq, rec) {
						return nil
					}
				}
			}
			off += size
		}
	}
	return nil
}

// Cursor returns the durable retrain cursor: jobs with seq ≤ cursor are
// incorporated in a committed model generation.
func (s *Store) Cursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Pending counts unique records past the cursor — the retrain backlog.
// The count is maintained incrementally (bumped per append, recomputed
// when the cursor moves), not scanned per call: Pending runs on every
// ingest response and /healthz, and a full index walk under mu at the
// 6.6 M-record scale would stall every concurrent append.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// recomputePendingLocked rebuilds the pending counter from the index —
// called only when the cursor moves (recovery, AdvanceCursor), never on
// the append or stats hot paths.
func (s *Store) recomputePendingLocked() {
	n := 0
	for _, seq := range s.index {
		if seq > s.cursor {
			n++
		}
	}
	s.pending = n
}

// AdvanceCursor durably moves the retrain cursor forward to seq (a lower
// value is ignored). Call only after the model generation that consumed
// those jobs has committed.
func (s *Store) AdvanceCursor(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.cursor {
		return nil
	}
	path := filepath.Join(s.dir, cursorName)
	if err := s.hook.At(StepCursorCommit, path); err != nil {
		return err
	}
	if err := durable.WriteFile(path, []byte(strconv.FormatUint(seq, 10)+"\n")); err != nil {
		return fmt.Errorf("joblog: commit cursor: %w", err)
	}
	s.cursor = seq
	s.recomputePendingLocked()
	return nil
}

// DrainPending streams the records past the cursor in mini-batches of at
// most batch records. fn receives each batch and the highest sequence
// number it contains; an error stops the drain. DrainPending does not
// advance the cursor — the caller does, once the batch's consumer (a
// model generation) has committed.
func (s *Store) DrainPending(batch int, fn func(recs []*darshan.Record, maxSeq uint64) error) error {
	if batch <= 0 {
		batch = 512
	}
	cursor := s.Cursor()
	var (
		buf    []*darshan.Record
		maxSeq uint64
		fnErr  error
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := fn(buf, maxSeq)
		buf = buf[:0]
		return err
	}
	err := s.Scan(func(seq uint64, rec *darshan.Record) bool {
		if seq <= cursor {
			return true
		}
		buf = append(buf, rec)
		if seq > maxSeq {
			maxSeq = seq
		}
		if len(buf) >= batch {
			if fnErr = flush(); fnErr != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if fnErr != nil {
		return fnErr
	}
	return flush()
}

// Stats is the operational snapshot surfaced on /healthz.
type Stats struct {
	Dir                string `json:"dir"`
	SealedSegments     int    `json:"sealed_segments"`
	ActiveBytes        int64  `json:"active_bytes"`
	TotalBytes         int64  `json:"total_bytes"`
	Records            int    `json:"records"`
	DuplicateFrames    int    `json:"duplicate_frames,omitempty"`
	Quarantined        int    `json:"quarantined"`
	NextSeq            uint64 `json:"next_seq"`
	Cursor             uint64 `json:"cursor"`
	Pending            int    `json:"pending"`
	Compactions        int    `json:"compactions"`
	LastCompactionUnix int64  `json:"last_compaction_unix,omitempty"`
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:                s.dir,
		SealedSegments:     len(s.man.Sealed),
		ActiveBytes:        s.activeBytes,
		TotalBytes:         s.sealedBytes + s.activeBytes,
		Records:            s.records,
		DuplicateFrames:    s.dupFrames,
		Quarantined:        s.quarantined,
		NextSeq:            s.nextSeq,
		Cursor:             s.cursor,
		Pending:            s.pending,
		Compactions:        s.man.Compactions,
		LastCompactionUnix: s.man.LastCompactionUnix,
	}
}

// rewriteSegment replaces a segment's contents with clean, given disk (its
// current on-disk bytes), without ever passing through a state that is
// missing previously durable frames — a crash at any instant leaves either
// the old bytes or the clean bytes. For the pure torn-tail case (clean is
// a prefix of disk) an in-place truncate suffices; otherwise the clean
// bytes are committed as one durable file write (temp + fsync + rename).
// A truncate-to-zero-then-write (os.Create) would
// open a window where a crash loses every acknowledged frame in the
// segment — exactly the crash-loop regime recovery runs in.
func rewriteSegment(path string, clean, disk []byte) error {
	if len(clean) <= len(disk) && bytes.Equal(clean, disk[:len(clean)]) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := f.Truncate(int64(len(clean))); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return durable.WriteFile(path, clean)
}
