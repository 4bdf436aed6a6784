package joblog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// Regression tests for review findings: the atomic salvage rewrite, the
// nextSeq floor at cursor+1, the incremental pending counter, and the
// Scan/Compact read-guard.

// TestRewriteSegmentAtomic exercises both paths of rewriteSegment: a pure
// torn-tail prefix is truncated in place, anything else goes through
// tmp + fsync + rename. In neither path may temp debris remain, and the
// final contents must be exactly the clean bytes.
func TestRewriteSegmentAtomic(t *testing.T) {
	cases := []struct {
		name  string
		disk  []byte
		clean []byte
	}{
		{"torn tail prefix", []byte("frame1frame2torn"), []byte("frame1frame2")},
		{"mid-segment hole", []byte("frame1BADframe3"), []byte("frame1frame3")},
		{"identical", []byte("frame1"), []byte("frame1")},
		{"all corrupt", []byte("garbage"), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "00000001.wal")
			if err := os.WriteFile(path, tc.disk, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := rewriteSegment(path, tc.clean, tc.disk); err != nil {
				t.Fatalf("rewriteSegment: %v", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(tc.clean) {
				t.Fatalf("contents %q, want %q", got, tc.clean)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), tmpPrefix) {
					t.Fatalf("temp debris left behind: %s", e.Name())
				}
			}
		})
	}
}

// TestSalvageRewriteNeverTruncatesFirst reopens a store whose sealed
// segment has a mid-segment corruption — the case recovery must rewrite
// rather than truncate — and asserts the rewrite left no temp debris and
// the repaired file verifies on a further reopen. (The crash-window
// argument — old bytes or clean bytes, never an empty file — is carried
// by rewriteSegment using truncate-or-rename instead of os.Create.)
func TestSalvageRewriteNeverTruncatesFirst(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const n = 6
	for i := 0; i < n; i++ {
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
	path := s.segPath(1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the SECOND record: the clean bytes are not a prefix of the
	// disk bytes, forcing the rename path.
	off := len(appendFrame(nil, encodePayload(nil, 1, testRecord(0))))
	data[off+frameHeaderLen+12] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if rep := s2.Recovery(); rep.Quarantined != 1 {
		t.Fatalf("recovery: %+v, want 1 quarantined", rep)
	}
	entries, err := os.ReadDir(filepath.Join(dir, segmentsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("salvage left temp debris: %s", e.Name())
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	if rep := s3.Recovery(); rep.Quarantined != 0 || rep.TornBytes != 0 {
		t.Fatalf("rewritten segment did not verify on reopen: %+v", rep)
	}
	counts, _ := collect(t, s3)
	if len(counts) != n-1 {
		t.Fatalf("%d records survive, want %d", len(counts), n-1)
	}
}

// TestNextSeqFlooredAtCursor loses the highest-seq records to a torn tail
// AFTER the cursor advanced past them. Recovery must floor nextSeq at
// cursor+1 so the next append is assigned a sequence number above the
// cursor — otherwise it would be durable yet invisible to DrainPending
// forever.
func TestNextSeqFlooredAtCursor(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceCursor(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear off records 2 and 3: only seq 1 survives, cursor stays at 3.
	path := s.segPath(1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := len(appendFrame(nil, encodePayload(nil, 1, testRecord(0))))
	if err := os.WriteFile(path, data[:firstFrame+3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if got := s2.Cursor(); got != 3 {
		t.Fatalf("cursor = %d, want 3", got)
	}
	if got := s2.Pending(); got != 0 {
		t.Fatalf("pending after recovery = %d, want 0", got)
	}
	res, err := s2.Append(testRecord(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 4 {
		t.Fatalf("fresh append got seq %d, want 4 (> cursor 3)", res.Seq)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Pending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	drained := 0
	err = s2.DrainPending(10, func(recs []*darshan.Record, maxSeq uint64) error {
		drained += len(recs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if drained != 1 {
		t.Fatalf("DrainPending saw %d records, want 1 — the new append is invisible", drained)
	}
}

// TestPendingCounterTracksCursor checks the incrementally maintained
// pending counter against every event that can move it: appends,
// duplicate appends (no-op), cursor advances, and recovery.
func TestPendingCounterTracksCursor(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("pending = %d, want 10", got)
	}
	// A duplicate append must not bump the counter.
	if _, err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("pending after duplicate = %d, want 10", got)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceCursor(4); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("pending after cursor=4: %d, want 6", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if got := s2.Pending(); got != 6 {
		t.Fatalf("pending after reopen = %d, want 6", got)
	}
	if st := s2.Stats(); st.Pending != 6 {
		t.Fatalf("stats pending = %d, want 6", st.Pending)
	}
}

// TestScanBlocksCompactCleanup races a Compact against an in-flight Scan:
// the scan holds the compaction read-guard, so Compact must wait rather
// than deleting superseded segments mid-walk (which would abort the scan
// with a missing-file error).
func TestScanBlocksCompactCleanup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 2048})
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}

	scanStarted := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	seen := 0
	go func() {
		first := true
		scanDone <- s.Scan(func(seq uint64, rec *darshan.Record) bool {
			if first {
				first = false
				close(scanStarted)
				<-release
			}
			seen++
			return true
		})
	}()
	<-scanStarted

	compactDone := make(chan error, 1)
	go func() {
		_, err := s.Compact()
		compactDone <- err
	}()
	select {
	case err := <-compactDone:
		t.Fatalf("compact completed while a scan held the read-guard (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Expected: compact is parked on the guard.
	}

	close(release)
	if err := <-scanDone; err != nil {
		t.Fatalf("scan aborted: %v", err)
	}
	if err := <-compactDone; err != nil {
		t.Fatalf("compact after scan: %v", err)
	}
	if seen != n {
		t.Fatalf("scan saw %d records, want %d", seen, n)
	}
	counts, _ := collect(t, s)
	if len(counts) != n {
		t.Fatalf("after compaction: %d unique records, want %d", len(counts), n)
	}
}
