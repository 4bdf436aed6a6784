package joblog

import (
	"bufio"
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/hpc-repro/aiio/internal/durable"
)

// Compaction rewrites the sealed segments into a duplicate-free, sorted
// set in bounded memory — the external merge-sort discipline (chunked
// in-memory sort, then a k-way heap merge over run files) that lets the
// store operate on datasets larger than RAM:
//
//  1. the active segment is sealed, so the input set is immutable
//  2. frames are streamed off the sealed segments and collected into
//     chunks of at most ChunkRecords, each sorted by (job hash, seq) and
//     written to a temp run file — memory never holds more than one chunk
//  3. the runs are merged through a min-heap; the first frame per job
//     hash (the lowest sequence number — the original append, not a
//     replay) survives, later ones are dropped
//  4. merged frames stream into fresh segments (rotated at SegmentBytes,
//     fsynced, renamed from temp), the manifest flips atomically to list
//     exactly the new set, and only then are the old segments deleted
//
// A crash anywhere in (2)–(3) leaves temp files the next Open sweeps; a
// crash between a segment rename and the manifest flip leaves new
// segments the next Open adopts as unsealed tails (their records are
// physical duplicates the dedup index masks); a crash after the flip but
// before cleanup leaves superseded old segments the next Open removes.
// In every window the set of unique records is preserved exactly.

// DefaultChunkRecords bounds a compaction chunk when Options.ChunkRecords
// is zero: ~64k records ≈ 30 MiB of payload, regardless of store size.
const DefaultChunkRecords = 64 << 10

// CompactStats reports one compaction.
type CompactStats struct {
	SegmentsIn        int   `json:"segments_in"`
	SegmentsOut       int   `json:"segments_out"`
	FramesIn          int   `json:"frames_in"`
	FramesOut         int   `json:"frames_out"`
	DuplicatesDropped int   `json:"duplicates_dropped"`
	BytesIn           int64 `json:"bytes_in"`
	BytesOut          int64 `json:"bytes_out"`
	Runs              int   `json:"runs"`
}

// runRec is one frame staged for a chunk sort.
type runRec struct {
	hash  hashKey
	seq   uint64
	frame []byte
}

// Compact rewrites the store as described above. It holds the store lock
// for the duration: appends block until the compaction commits, and an
// in-flight Scan (the compaction read-guard) blocks Compact from starting,
// so cleanup never deletes a segment a scanner is still reading. Returns
// the stats of the rewrite; a store with nothing sealed is a no-op.
func (s *Store) Compact() (*CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.active != nil || len(s.activeBuf) > 0 {
		if err := s.sealLocked(); err != nil {
			return nil, err
		}
	}
	stats := &CompactStats{SegmentsIn: len(s.man.Sealed)}
	if len(s.man.Sealed) == 0 {
		return stats, nil
	}
	chunkMax := s.opts.ChunkRecords
	if chunkMax <= 0 {
		chunkMax = DefaultChunkRecords
	}
	segRoot := filepath.Join(s.dir, segmentsDir)

	// (2) chunked sort into run files.
	var (
		runs  []string
		chunk []runRec
	)
	defer func() {
		for _, r := range runs {
			os.Remove(r)
		}
	}()
	flushRun := func() error {
		if len(chunk) == 0 {
			return nil
		}
		sort.Slice(chunk, func(i, j int) bool {
			if c := bytes.Compare(chunk[i].hash[:], chunk[j].hash[:]); c != 0 {
				return c < 0
			}
			return chunk[i].seq < chunk[j].seq
		})
		path := filepath.Join(segRoot, fmt.Sprintf("%srun-%06d", tmpPrefix, len(runs)))
		if err := s.hook.At(StepCompactRun, path); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("joblog: create run: %w", err)
		}
		w := bufio.NewWriterSize(f, 1<<20)
		for _, r := range chunk {
			if _, err := w.Write(r.frame); err != nil {
				f.Close()
				return fmt.Errorf("joblog: write run: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("joblog: flush run: %w", err)
		}
		// Runs are scratch: a crash discards them, so no fsync needed.
		if err := f.Close(); err != nil {
			return err
		}
		runs = append(runs, path)
		chunk = chunk[:0]
		return nil
	}
	for _, si := range s.man.Sealed {
		data, err := os.ReadFile(filepath.Join(segRoot, si.File))
		if err != nil {
			return nil, fmt.Errorf("joblog: compact read %s: %w", si.File, err)
		}
		stats.BytesIn += int64(len(data))
		off := 0
		for off < len(data) {
			res, payload, size := parseFrame(data[off:])
			if res != frameOK {
				break
			}
			seq, _, derr := decodePayload(payload)
			if derr != nil {
				if qerr := s.quarantine(payload, fmt.Sprintf("compact %s@%d: %v", si.File, off, derr)); qerr != nil {
					return nil, qerr
				}
				off += size
				continue
			}
			stats.FramesIn++
			chunk = append(chunk, runRec{
				hash:  payloadHash(payload),
				seq:   seq,
				frame: append([]byte(nil), data[off:off+size]...),
			})
			if len(chunk) >= chunkMax {
				if err := flushRun(); err != nil {
					return nil, err
				}
			}
			off += size
		}
	}
	if err := flushRun(); err != nil {
		return nil, err
	}
	stats.Runs = len(runs)
	if len(runs) == 0 {
		return stats, nil
	}

	// (3) k-way heap merge over the runs.
	if err := s.hook.At(StepCompactMerge, segRoot); err != nil {
		return nil, err
	}
	h := &runHeap{}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, path := range runs {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("joblog: open run: %w", err)
		}
		files = append(files, f)
		rc := &runCursor{r: bufio.NewReaderSize(f, 1<<20)}
		if ok, err := rc.next(); err != nil {
			return nil, err
		} else if ok {
			h.items = append(h.items, rc)
		}
	}
	heap.Init(h)

	// (4) stream merged frames into fresh segments.
	out := &compactWriter{s: s, segRoot: segRoot}
	var lastHash hashKey
	haveLast := false
	for h.Len() > 0 {
		rc := h.items[0]
		if haveLast && rc.hash == lastHash {
			stats.DuplicatesDropped++
		} else {
			if err := out.write(rc.frame); err != nil {
				return nil, err
			}
			stats.FramesOut++
			lastHash, haveLast = rc.hash, true
		}
		if ok, err := rc.next(); err != nil {
			return nil, err
		} else if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	newSealed, err := out.finish()
	if err != nil {
		return nil, err
	}
	stats.SegmentsOut = len(newSealed)
	for _, si := range newSealed {
		stats.BytesOut += si.Bytes
	}

	// Flip the manifest to exactly the new set; the old segments become
	// superseded debris the moment this rename lands.
	oldSealed := s.man.Sealed
	s.man.Sealed = newSealed
	s.man.Compactions++
	s.man.LastCompactionUnix = time.Now().Unix()
	if err := s.commitManifest(StepCompactManifest); err != nil {
		s.man.Sealed = oldSealed
		s.man.Compactions--
		return nil, err
	}
	s.sealedBytes = stats.BytesOut
	s.dupFrames = 0
	s.activeBytes = 0

	// Cleanup, best effort: a failure leaves debris the next Open sweeps.
	for _, si := range oldSealed {
		path := filepath.Join(segRoot, si.File)
		if err := s.hook.At(StepCompactCleanup, path); err != nil {
			return stats, err
		}
		os.Remove(path)
	}
	return stats, nil
}

// compactWriter streams merged frames into size-rotated, fsynced,
// atomically renamed segments.
type compactWriter struct {
	s       *Store
	segRoot string

	f      *os.File
	w      *bufio.Writer
	sha    hash.Hash
	idx    uint64
	bytes  int64
	frames int
	sealed []segmentInfo
}

func (cw *compactWriter) open() error {
	cw.idx = cw.s.nextSegIdx
	cw.s.nextSegIdx++
	path := filepath.Join(cw.segRoot, fmt.Sprintf("%scmp-%08d", tmpPrefix, cw.idx))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("joblog: create merged segment: %w", err)
	}
	cw.sha = sha256.New()
	cw.f = f
	cw.w = bufio.NewWriterSize(io.MultiWriter(f, cw.sha), 1<<20)
	cw.bytes = 0
	cw.frames = 0
	return nil
}

func (cw *compactWriter) write(frame []byte) error {
	if cw.f == nil {
		if err := cw.open(); err != nil {
			return err
		}
	}
	if _, err := cw.w.Write(frame); err != nil {
		return fmt.Errorf("joblog: write merged segment: %w", err)
	}
	cw.bytes += int64(len(frame))
	cw.frames++
	if cw.bytes >= cw.s.opts.SegmentBytes {
		return cw.seal()
	}
	return nil
}

// seal finishes the open merged segment: flush, fsync, rename into place.
func (cw *compactWriter) seal() error {
	if cw.f == nil {
		return nil
	}
	if err := cw.w.Flush(); err != nil {
		cw.f.Close()
		return fmt.Errorf("joblog: flush merged segment: %w", err)
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return fmt.Errorf("joblog: sync merged segment: %w", err)
	}
	tmp := cw.f.Name()
	if err := cw.f.Close(); err != nil {
		return err
	}
	final := cw.s.segPath(cw.idx)
	if err := cw.s.hook.At(StepCompactSeal, final); err != nil {
		return err
	}
	if err := durable.Rename(tmp, final); err != nil {
		return fmt.Errorf("joblog: commit merged segment: %w", err)
	}
	cw.sealed = append(cw.sealed, segmentInfo{
		File:   filepath.Base(final),
		Frames: cw.frames,
		Bytes:  cw.bytes,
		SHA256: hex.EncodeToString(cw.sha.Sum(nil)),
	})
	cw.f = nil
	return nil
}

func (cw *compactWriter) finish() ([]segmentInfo, error) {
	if err := cw.seal(); err != nil {
		return nil, err
	}
	return cw.sealed, nil
}

// runCursor walks one run file frame by frame.
type runCursor struct {
	r     *bufio.Reader
	hash  hashKey
	seq   uint64
	frame []byte
}

// next loads the cursor's next frame; ok is false at end of run.
func (rc *runCursor) next() (ok bool, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(rc.r, hdr[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, fmt.Errorf("joblog: read run frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxPayloadLen {
		return false, fmt.Errorf("joblog: run frame length %d out of range", n)
	}
	frame := make([]byte, frameHeaderLen+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(rc.r, frame[frameHeaderLen:]); err != nil {
		return false, fmt.Errorf("joblog: read run frame payload: %w", err)
	}
	payload := frame[frameHeaderLen:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return false, fmt.Errorf("joblog: run frame checksum mismatch")
	}
	seq, _, derr := decodePayload(payload)
	if derr != nil {
		return false, fmt.Errorf("joblog: run frame payload: %w", derr)
	}
	rc.hash = payloadHash(payload)
	rc.seq = seq
	rc.frame = frame
	return true, nil
}

// runHeap is a min-heap of run cursors ordered by (hash, seq) — the merge
// front of the k-way merge.
type runHeap struct {
	items []*runCursor
}

func (h *runHeap) Len() int { return len(h.items) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if c := bytes.Compare(a.hash[:], b.hash[:]); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}
func (h *runHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *runHeap) Push(x any)    { h.items = append(h.items, x.(*runCursor)) }
func (h *runHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
