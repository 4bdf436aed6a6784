package joblog

import (
	"errors"
	"os"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/faults"
)

// The chaos sweep: kill the store at every durable step of its lifecycle
// — append, sync, rotate, compact, cursor commit — and assert on restart
// that (a) every acknowledged job is present exactly once, (b) no job is
// ever present twice, and (c) recovery leaves a store that keeps working.
// faults.CrashAfterSteps aborts at the (n+1)-th hook call, so sweeping n
// from 0 upward walks the crash point through every durability window.

// verifyExactlyOnce reopens dir and checks the acked set against a scan.
func verifyExactlyOnce(t *testing.T, dir string, acked map[int64]bool, label string) *Store {
	t.Helper()
	s, err := Open(dir, Options{segmentBytes: 1024})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	counts := make(map[int64]int)
	if err := s.Scan(func(seq uint64, rec *darshan.Record) bool {
		counts[rec.JobID]++
		return true
	}); err != nil {
		t.Fatalf("%s: scan after crash: %v", label, err)
	}
	for id := range acked {
		if counts[id] != 1 {
			t.Fatalf("%s: acknowledged job %d present %d times after restart, want exactly 1 (counts %v)",
				label, id, counts[id], counts)
		}
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("%s: job %d present %d times after restart — duplicate replay", label, id, c)
		}
	}
	return s
}

func TestCrashSweepAppendRotate(t *testing.T) {
	const jobs = 30
	for n := 0; ; n++ {
		dir := t.TempDir()
		// Tiny segments force rotations mid-sweep, so the crash point
		// walks through seal-sync and seal-manifest as well as the
		// append/sync steps.
		s, err := Open(dir, Options{segmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		s.SetHook(faults.CrashAfterSteps(n))
		acked := make(map[int64]bool)
		crashed := false
		for i := 0; i < jobs; i++ {
			rec := testRecord(i)
			if _, err := s.Append(rec); err != nil {
				if !errors.Is(err, faults.ErrInjectedCrash) {
					t.Fatalf("n=%d append %d: %v", n, i, err)
				}
				crashed = true
				break
			}
			if err := s.Sync(); err != nil {
				if !errors.Is(err, faults.ErrInjectedCrash) {
					t.Fatalf("n=%d sync %d: %v", n, i, err)
				}
				crashed = true
				break
			}
			acked[rec.JobID] = true
		}
		// The "restart": a fresh Open of the same directory. The crashed
		// process's file handle is abandoned, like a real kill -9.
		re := verifyExactlyOnce(t, dir, acked, "append-sweep")
		// The recovered store must keep accepting work.
		if _, err := re.Append(testRecord(jobs + n)); err != nil {
			t.Fatalf("n=%d: append after recovery: %v", n, err)
		}
		if err := re.Sync(); err != nil {
			t.Fatalf("n=%d: sync after recovery: %v", n, err)
		}
		if !crashed {
			// The hook budget outlived the whole workload: every crash
			// point has been visited.
			if len(acked) != jobs {
				t.Fatalf("clean run acked %d of %d jobs", len(acked), jobs)
			}
			break
		}
	}
}

// TestCrashSweepAckedRetryIdempotent drives the client-retry protocol
// through every crash point: after the crash, the writer re-sends its
// whole batch (it cannot know which appends survived), and the store must
// absorb the replay without duplicates.
func TestCrashSweepAckedRetryIdempotent(t *testing.T) {
	const jobs = 25
	for n := 0; ; n++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{segmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		s.SetHook(faults.CrashAfterSteps(n))
		crashed := false
		for i := 0; i < jobs; i++ {
			if _, err := s.Append(testRecord(i)); err != nil {
				crashed = true
				break
			}
		}
		if !crashed {
			if err := s.Sync(); err != nil {
				crashed = true
			}
		}
		// Retry: reopen and re-send everything.
		re, err := Open(dir, Options{segmentBytes: 1024})
		if err != nil {
			t.Fatalf("n=%d: reopen: %v", n, err)
		}
		acked := make(map[int64]bool)
		for i := 0; i < jobs; i++ {
			rec := testRecord(i)
			if _, err := re.Append(rec); err != nil {
				t.Fatalf("n=%d: retry append %d: %v", n, i, err)
			}
			acked[rec.JobID] = true
		}
		if err := re.Sync(); err != nil {
			t.Fatalf("n=%d: retry sync: %v", n, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
		verifyExactlyOnce(t, dir, acked, "retry-sweep")
		if !crashed {
			break
		}
	}
}

func TestCrashSweepCompact(t *testing.T) {
	const jobs = 40
	for n := 0; ; n++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{segmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		acked := make(map[int64]bool)
		for i := 0; i < jobs; i++ {
			rec := testRecord(i)
			if _, err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
			acked[rec.JobID] = true
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		// A physical duplicate (as a crashed earlier compaction would
		// leave): compaction must drop it, and a crashed compaction must
		// never surface it twice.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		appendRawDuplicate(t, dir, 500, testRecord(1), 90)
		s, err = Open(dir, Options{segmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		s.SetHook(faults.CrashAfterSteps(n))
		_, cerr := s.Compact()
		crashed := cerr != nil
		if crashed && !errors.Is(cerr, faults.ErrInjectedCrash) {
			t.Fatalf("n=%d: compact failed for a non-injected reason: %v", n, cerr)
		}
		re := verifyExactlyOnce(t, dir, acked, "compact-sweep")
		if !crashed {
			// The completed compaction must have dropped the duplicate
			// frame and produced a verifiable layout.
			if st := re.Stats(); st.DuplicateFrames != 0 || st.Compactions == 0 {
				t.Fatalf("post-compaction stats: %+v", st)
			}
			break
		}
	}
}

func TestCrashAtCursorCommitLeavesCursor(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceCursor(2); err != nil {
		t.Fatal(err)
	}
	s.SetHook(faults.CrashAtStep(StepCursorCommit))
	if err := s.AdvanceCursor(5); err == nil {
		t.Fatal("cursor advance should have crashed")
	}
	s2 := mustOpen(t, dir, Options{})
	if got := s2.Cursor(); got != 2 {
		t.Fatalf("cursor after crashed advance = %d, want 2 (the last committed value)", got)
	}
	if got := s2.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3 — jobs past the crashed cursor must stay in the backlog", got)
	}
}

// TestTornAppendTruncated simulates a torn write at every byte boundary of
// the final frame: the tail is truncated, fully-synced records survive,
// and nothing is quarantined (an incomplete frame is torn, not corrupt).
func TestTornAppendTruncated(t *testing.T) {
	base := t.TempDir()
	// Build a reference store to learn the frame size of record 3.
	ref := mustOpen(t, base, Options{})
	for i := 0; i < 4; i++ {
		if _, err := ref.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(ref.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(appendFrame(nil, encodePayload(nil, 4, testRecord(3))))
	for cut := 1; cut < frameLen; cut++ {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		for i := 0; i < 4; i++ {
			if _, err := s.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(s.segPath(1), int64(len(whole)-cut)); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir, Options{})
		counts := make(map[int64]int)
		if err := s2.Scan(func(seq uint64, rec *darshan.Record) bool {
			counts[rec.JobID]++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(counts) != 3 {
			t.Fatalf("cut=%d: %d records survive, want 3", cut, len(counts))
		}
		rep := s2.Recovery()
		if rep.TornBytes == 0 {
			t.Fatalf("cut=%d: recovery did not report a torn tail: %+v", cut, rep)
		}
		if rep.Quarantined != 0 {
			t.Fatalf("cut=%d: torn tail was quarantined, not truncated: %+v", cut, rep)
		}
		// The truncated store keeps working and the truncated job can be
		// re-sent as a fresh append.
		if res, err := s2.Append(testRecord(3)); err != nil || res.Duplicate {
			t.Fatalf("cut=%d: re-append of torn job: res=%+v err=%v", cut, res, err)
		}
	}
}
