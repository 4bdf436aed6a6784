package joblog

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestJobLogDurableStepOrder pins the exact hook steps, in order, of one
// Append+Sync, one Rotate, one Compact and one AdvanceCursor. Around those
// steps the file system sees, per operation:
//
//   - Append+Sync: create the segment → fsync segments/; append-write
//     (staged in memory); write the frames → append-sync → fsync the
//     segment.
//   - Rotate: write staged frames → seal-sync → fsync + close the segment;
//     seal-manifest → write + fsync .tmp-MANIFEST → rename it to MANIFEST
//     → fsync the store directory.
//   - Compact: the Rotate sequence for the active segment; per run,
//     compact-run → write the run file (scratch, no fsync); compact-merge;
//     per merged segment, write + fsync .tmp-cmp-N → compact-seal → rename
//     it to N.wal → fsync segments/; compact-manifest → the manifest
//     commit above; per superseded segment, compact-cleanup → remove it.
//   - AdvanceCursor: cursor-commit → write + fsync .tmp-CURSOR → rename it
//     to CURSOR → fsync the store directory.
func TestJobLogDurableStepOrder(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	var got []string
	s.SetHook(func(step, path string) error {
		rel, err := filepath.Rel(s.Dir(), path)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, step+" "+filepath.ToSlash(rel))
		return nil
	})
	check := func(op string, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s steps:\n got %q\nwant %q", op, got, want)
		}
		got = nil
	}

	if _, err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	check("Append+Sync", []string{
		"append-write segments/00000001.wal",
		"append-sync segments/00000001.wal",
	})

	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	check("Rotate", []string{
		"seal-sync segments/00000001.wal",
		"seal-manifest MANIFEST",
	})

	// A second, unsealed segment: Compact seals it first, then merges both.
	if _, err := s.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	got = nil
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", []string{
		"seal-sync segments/00000002.wal",
		"seal-manifest MANIFEST",
		"compact-run segments/.tmp-run-000000",
		"compact-merge segments",
		"compact-seal segments/00000003.wal",
		"compact-manifest MANIFEST",
		"compact-cleanup segments/00000001.wal",
		"compact-cleanup segments/00000002.wal",
	})

	if err := s.AdvanceCursor(2); err != nil {
		t.Fatal(err)
	}
	check("AdvanceCursor", []string{"cursor-commit CURSOR"})
}
