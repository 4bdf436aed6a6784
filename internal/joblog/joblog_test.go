package joblog

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/faults"
)

// testRecord builds a deterministic record; i controls every field, so
// distinct i means a distinct job hash.
func testRecord(i int) *darshan.Record {
	rec := &darshan.Record{
		JobID:          int64(i + 1),
		App:            fmt.Sprintf("app-%d", i%7),
		Year:           2019 + i%4,
		PerfMiBps:      float64(100 + i),
		SlowestSeconds: float64(i) * 0.25,
	}
	for j := range rec.Counters {
		rec.Counters[j] = float64((i*31 + j*7) % 1000)
	}
	return rec
}

// mustOpen opens a store and fails the test on error.
func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

// collect scans the store into a JobID → count map plus ordered records.
func collect(t *testing.T, s *Store) (map[int64]int, []*darshan.Record) {
	t.Helper()
	counts := make(map[int64]int)
	var recs []*darshan.Record
	if err := s.Scan(func(seq uint64, rec *darshan.Record) bool {
		counts[rec.JobID]++
		recs = append(recs, rec)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return counts, recs
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const n = 50
	for i := 0; i < n; i++ {
		res, err := s.Append(testRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if res.Duplicate {
			t.Fatalf("append %d reported duplicate", i)
		}
		if res.Seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, want %d", i, res.Seq, i+1)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	counts, recs := collect(t, s)
	if len(recs) != n {
		t.Fatalf("scanned %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		want := testRecord(i)
		if *rec != *want {
			t.Fatalf("record %d does not round-trip:\n got %+v\nwant %+v", i, rec, want)
		}
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("job %d scanned %d times", id, c)
		}
	}
	st := s.Stats()
	if st.Records != n || st.Pending != n || st.Quarantined != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDuplicateAppendsAreIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	first, err := s.Append(testRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Append(testRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Duplicate || again.Seq != first.Seq {
		t.Fatalf("retry: %+v, want duplicate of seq %d", again, first.Seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The dedup index must survive a restart: a retry after reopen is
	// still a duplicate.
	s2 := mustOpen(t, dir, Options{})
	res, err := s2.Append(testRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate {
		t.Fatalf("retry after reopen not deduplicated: %+v", res)
	}
	if st := s2.Stats(); st.Records != 1 {
		t.Fatalf("records = %d, want 1", st.Records)
	}
}

func TestRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 2048})
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SealedSegments < 2 {
		t.Fatalf("expected multiple sealed segments, got %d (stats %+v)", st.SealedSegments, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{segmentBytes: 2048})
	counts, recs := collect(t, s2)
	if len(recs) != n || len(counts) != n {
		t.Fatalf("after reopen: %d records (%d unique), want %d", len(recs), len(counts), n)
	}
	if rep := s2.Recovery(); rep.Quarantined != 0 || rep.TornBytes != 0 {
		t.Fatalf("clean reopen reported repairs: %+v", rep)
	}
}

func TestCursorAndDrainPending(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceCursor(5); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	var batches []int
	var lastMax uint64
	err := s.DrainPending(2, func(recs []*darshan.Record, maxSeq uint64) error {
		batches = append(batches, len(recs))
		lastMax = maxSeq
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 || batches[0] != 2 || batches[1] != 2 || batches[2] != 1 {
		t.Fatalf("batches = %v, want [2 2 1]", batches)
	}
	if lastMax != 10 {
		t.Fatalf("maxSeq = %d, want 10", lastMax)
	}
	// The cursor survives a restart.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if got := s2.Cursor(); got != 5 {
		t.Fatalf("cursor after reopen = %d, want 5", got)
	}
	if got := s2.Pending(); got != 5 {
		t.Fatalf("pending after reopen = %d, want 5", got)
	}
}

// appendRawDuplicate writes a frame for rec with a fresh seq directly into
// a new segment file, bypassing the dedup index — the on-disk state a
// crash-interrupted compaction or a replayed WAL shipment leaves behind.
func appendRawDuplicate(t *testing.T, dir string, seq uint64, rec *darshan.Record, segIdx uint64) {
	t.Helper()
	payload := encodePayload(nil, seq, rec)
	frame := appendFrame(nil, payload)
	path := filepath.Join(dir, segmentsDir, fmt.Sprintf("%08d%s", segIdx, segmentExt))
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalDuplicatesMaskedThenCompacted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 8; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A duplicate of job 2 under a new sequence number, in a later segment.
	appendRawDuplicate(t, dir, 99, testRecord(2), 77)

	s2 := mustOpen(t, dir, Options{})
	if rep := s2.Recovery(); rep.DuplicateFrames != 1 {
		t.Fatalf("recovery: %+v, want 1 duplicate frame", rep)
	}
	counts, _ := collect(t, s2)
	if len(counts) != 8 {
		t.Fatalf("unique jobs = %d, want 8", len(counts))
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("job %d yielded %d times — dedup mask failed", id, c)
		}
	}
	stats, err := s2.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if stats.DuplicatesDropped != 1 {
		t.Fatalf("compact stats %+v, want 1 duplicate dropped", stats)
	}
	counts, _ = collect(t, s2)
	if len(counts) != 8 {
		t.Fatalf("after compaction: %d unique, want 8", len(counts))
	}
	if st := s2.Stats(); st.DuplicateFrames != 0 || st.Compactions != 1 || st.LastCompactionUnix == 0 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
}

// TestCompactionManySegments compacts a log spread over many sealed
// segments into a layout that reopens clean and still holds every job.
func TestCompactionManySegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 4096})
	const n = 150
	for i := 0; i < n; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := s.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if stats.SegmentsIn < 10 {
		t.Fatalf("expected a many-segment log, got %d segments in (stats %+v)", stats.SegmentsIn, stats)
	}
	if stats.FramesOut != n {
		t.Fatalf("frames out = %d, want %d", stats.FramesOut, n)
	}
	counts, _ := collect(t, s)
	if len(counts) != n {
		t.Fatalf("unique jobs after compaction = %d, want %d", len(counts), n)
	}
	// Reopen: the compacted layout must verify against its manifest.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if rep := s2.Recovery(); rep.Quarantined != 0 || rep.RemovedDebris != 0 {
		t.Fatalf("recovery after compaction: %+v", rep)
	}
	counts, _ = collect(t, s2)
	if len(counts) != n {
		t.Fatalf("after reopen: %d unique, want %d", len(counts), n)
	}
}

func TestQuarantineRecordPersists(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	bad := testRecord(0)
	if err := s.QuarantineRecord(bad, "counter POSIX_READS is not finite"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Records != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantine count lost across reopen: %+v", st)
	}
}

// scanSeqsIncreasing fails unless Scan yields strictly increasing seqs.
func scanSeqsIncreasing(t *testing.T, s *Store, label string, want int) {
	t.Helper()
	var last uint64
	n, backward := 0, 0
	if err := s.Scan(func(seq uint64, rec *darshan.Record) bool {
		if seq <= last {
			backward++
		}
		last = seq
		n++
		return true
	}); err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	if n != want || backward != 0 {
		t.Fatalf("%s: scanned %d records (want %d), %d steps out of sequence order", label, n, want, backward)
	}
}

// TestScanInSequenceOrderAfterCompact pins the order contract the retrain
// window relies on: Scan yields sequence order before a compaction, after
// it, after appends that land behind the compacted segments, and after a
// reopen.
func TestScanInSequenceOrderAfterCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 1024})
	const n, more = 150, 30
	for i := 0; i < n; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SealedSegments < 40 {
		t.Fatalf("want at least 40 sealed segments, got %d", st.SealedSegments)
	}
	scanSeqsIncreasing(t, s, "before compaction", n)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	scanSeqsIncreasing(t, s, "after compaction", n)
	for i := n; i < n+more; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	scanSeqsIncreasing(t, s, "after appends", n+more)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	scanSeqsIncreasing(t, mustOpen(t, dir, Options{segmentBytes: 1024}), "after reopen", n+more)
}

// diskFrame is one frame on disk, identified by its job hash, its seq and
// its exact bytes.
type diskFrame struct {
	hash  hashKey
	seq   uint64
	frame string
}

// diskFrames parses every segment file under dir, bypassing the store.
func diskFrames(t *testing.T, dir string) []diskFrame {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segmentsDir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	var out []diskFrame
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			res, payload, size := parseFrame(data[off:])
			if res != frameOK {
				t.Fatalf("%s@%d: unparseable frame", p, off)
			}
			seq, _, err := decodePayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, diskFrame{payloadHash(payload), seq, string(data[off : off+size])})
			off += size
		}
	}
	return out
}

// TestCompactKeepsLowestSeqFrameSet checks what one compaction keeps on a
// log holding both kinds of physical duplicate — a replay under a later
// seq and the byte-identical copies a compaction crashed before its
// manifest flip leaves behind: exactly one frame per job, the lowest-seq
// one, byte for byte. Sets are compared, not order.
func TestCompactKeepsLowestSeqFrameSet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 1024})
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendRawDuplicate(t, dir, 500, testRecord(4), 90)
	s = mustOpen(t, dir, Options{segmentBytes: 1024})
	s.SetHook(faults.CrashAtStep(StepCompactManifest))
	if _, err := s.Compact(); !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("compact: %v, want the injected crash", err)
	}
	s = mustOpen(t, dir, Options{segmentBytes: 1024})
	if rep := s.Recovery(); rep.DuplicateFrames <= n {
		t.Fatalf("recovery %+v: want the replay plus a crash-adopted copy of every job", rep)
	}

	want := make(map[hashKey]diskFrame)
	for _, f := range diskFrames(t, dir) {
		if cur, ok := want[f.hash]; !ok || f.seq < cur.seq {
			want[f.hash] = f
		}
	}
	stats, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[diskFrame]int)
	for _, f := range diskFrames(t, dir) {
		got[f]++
	}
	if len(got) != n || len(want) != n || stats.FramesOut != n {
		t.Fatalf("%d distinct frames kept, %d jobs, %d frames out; want %d each", len(got), len(want), stats.FramesOut, n)
	}
	for _, f := range want {
		if got[f] != 1 {
			t.Fatalf("job seq %d kept %d times, want its lowest-seq frame exactly once", f.seq, got[f])
		}
	}
	if st := s.Stats(); st.DuplicateFrames != 0 || st.Records != n {
		t.Fatalf("post-compaction stats: %+v", st)
	}
}

// TestPayloadHashAllocatesNothing: the dedup key is computed on every Append
// and on every frame a Scan, a compaction or a recovery reads, so it stays
// off the heap. The key is the head of the SHA-256 of the payload with its
// seq field zeroed.
func TestPayloadHashAllocatesNothing(t *testing.T) {
	p := encodePayload(nil, 7, testRecord(3))
	zeroed := bytes.Clone(p)
	clear(zeroed[seqOffset : seqOffset+8])
	want := sha256.Sum256(zeroed)
	if k := payloadHash(p); !bytes.Equal(k[:], want[:len(k)]) {
		t.Fatalf("payloadHash = %x, want %x", k, want[:len(k)])
	}
	if n := testing.AllocsPerRun(100, func() { payloadHash(p) }); n != 0 {
		t.Fatalf("payloadHash allocates %v times per call, want 0", n)
	}
}
