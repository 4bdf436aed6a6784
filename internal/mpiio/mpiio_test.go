package mpiio

import (
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// capture collects lowered POSIX ops.
type capture struct {
	ops []darshan.Op
}

func (c *capture) emit(op darshan.Op) { c.ops = append(c.ops, op) }

func (c *capture) bytesWritten() int64 {
	var n int64
	for _, op := range c.ops {
		if op.Kind == darshan.OpWrite {
			n += op.Size
		}
	}
	return n
}

func (c *capture) writtenRanges() map[int64]int64 {
	m := map[int64]int64{}
	for _, op := range c.ops {
		if op.Kind == darshan.OpWrite {
			m[op.Offset] += op.Size
		}
	}
	return m
}

func TestIndependentOpsLowerDirectly(t *testing.T) {
	var c capture
	f := Open(0, 4, 7, 2, false, c.emit)
	f.WriteAt(0, 1024)
	f.WriteAt(1024, 1024) // contiguous: no seek
	f.WriteAt(4096, 512)
	f.Sync()
	f.Close()

	cnt := f.Counters()
	if cnt[IndepOpens] != 1 || cnt[CollOpens] != 0 {
		t.Errorf("opens: %v/%v", cnt[IndepOpens], cnt[CollOpens])
	}
	if cnt[IndepWrites] != 3 {
		t.Errorf("ops: %v writes", cnt[IndepWrites])
	}
	if cnt[BytesWritten] != 2560 {
		t.Errorf("bytes: %v", cnt[BytesWritten])
	}
	if cnt[SizeWrite100_1K] != 3 {
		t.Errorf("size buckets wrong: %v", cnt)
	}
	if cnt[Syncs] != 1 {
		t.Errorf("syncs: %v", cnt[Syncs])
	}
	// Lowering: open, write, write (no seek between), seek, write, fsync, close.
	kinds := []darshan.OpKind{}
	for _, op := range c.ops {
		kinds = append(kinds, op.Kind)
	}
	want := []darshan.OpKind{darshan.OpOpen, darshan.OpWrite, darshan.OpWrite,
		darshan.OpSeek, darshan.OpWrite, darshan.OpFsync, darshan.OpClose}
	if len(kinds) != len(want) {
		t.Fatalf("lowered ops %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// runCollective drives all ranks and returns per-rank captures + merged
// counters.
func runCollective(nprocs, aggRatio int, drive func(f *File)) ([]capture, Counters) {
	caps := make([]capture, nprocs)
	var merged Counters
	for rank := 0; rank < nprocs; rank++ {
		f := Open(rank, nprocs, 1, aggRatio, true, caps[rank].emit)
		drive(f)
		f.Close()
		merged.Merge(f.Counters())
	}
	return caps, merged
}

func TestCollectiveWriteContigCoversExactly(t *testing.T) {
	const nprocs, aggRatio = 8, 4
	const perRank = 256 * 1024
	caps, merged := runCollective(nprocs, aggRatio, func(f *File) {
		f.CollectiveWriteContig(0, perRank, 1<<20)
	})
	// Every rank counts one collective write; only aggregators lower.
	if merged[CollWrites] != nprocs {
		t.Errorf("MPIIO_COLL_WRITES = %v", merged[CollWrites])
	}
	if merged[CollOpens] != nprocs {
		t.Errorf("MPIIO_COLL_OPENS = %v", merged[CollOpens])
	}
	if merged[BytesWritten] != nprocs*perRank {
		t.Errorf("MPIIO bytes %v", merged[BytesWritten])
	}
	var posixBytes int64
	covered := map[int64]int64{}
	for rank := range caps {
		wrote := caps[rank].bytesWritten()
		posixBytes += wrote
		if rank%aggRatio != 0 && wrote != 0 {
			t.Errorf("non-aggregator rank %d wrote %d POSIX bytes", rank, wrote)
		}
		for off, n := range caps[rank].writtenRanges() {
			covered[off] += n
		}
	}
	if posixBytes != nprocs*perRank {
		t.Errorf("POSIX bytes %d, want %d", posixBytes, nprocs*perRank)
	}
	// The union of aggregator writes must tile [0, total) without overlap.
	var sum int64
	for _, n := range covered {
		sum += n
	}
	if sum != nprocs*perRank {
		t.Errorf("covered %d bytes", sum)
	}
}

func TestAggregatorGroupEdges(t *testing.T) {
	// nprocs not divisible by aggRatio: the last group is short but the
	// coverage must still be exact.
	const nprocs, aggRatio = 7, 3
	const perRank = 64 * 1024
	caps, _ := runCollective(nprocs, aggRatio, func(f *File) {
		f.CollectiveWriteContig(0, perRank, 1<<20)
	})
	var posixBytes int64
	for rank := range caps {
		posixBytes += caps[rank].bytesWritten()
	}
	if posixBytes != nprocs*perRank {
		t.Errorf("POSIX bytes %d, want %d", posixBytes, nprocs*perRank)
	}
}

func TestDegenerateInputs(t *testing.T) {
	var c capture
	f := Open(0, 0, 1, 0, false, c.emit) // clamps nprocs/aggRatio to 1
	f.CollectiveWriteContig(0, 0, 0)     // zero size: counted, not lowered
	f.CollectiveWriteGathered(0, -5, 0)
	f.Close()
	if got := c.bytesWritten(); got != 0 {
		t.Errorf("degenerate collectives wrote %d bytes", got)
	}
	cnt := f.Counters()
	if cnt[CollWrites] != 2 {
		t.Errorf("degenerate ops still counted: %v", cnt[CollWrites])
	}
}

func TestSyncVisibleOnlyAtMPIIOLayer(t *testing.T) {
	// MPI_File_sync lowers to fsync, which none of the paper's 45 POSIX
	// counters records — but MPIIO_SYNCS does. This is the information gap
	// the extension experiment quantifies.
	run := func(sync bool) (*darshan.Record, Counters) {
		coll := darshan.NewCollector(1, 8, 1<<20)
		pc := coll.Proc(0)
		f := Open(0, 1, 0, 1, false, func(op darshan.Op) { pc.Observe(op) })
		for i := int64(0); i < 8; i++ {
			f.WriteAt(i*1024, 1024)
			if sync {
				f.Sync()
			}
		}
		f.Close()
		return coll.Finalize(1<<20, 1), *f.Counters()
	}
	recA, cntA := run(false)
	recB, cntB := run(true)
	if *recA != *recB {
		t.Error("fsync moved a POSIX counter; the 45-counter set should not see it")
	}
	if cntA[Syncs] != 0 || cntB[Syncs] != 8 {
		t.Errorf("MPIIO_SYNCS = %v/%v, want 0/8", cntA[Syncs], cntB[Syncs])
	}
}

func TestCollectivesEmitExchange(t *testing.T) {
	var c capture
	f := Open(0, 4, 1, 2, true, c.emit)
	f.CollectiveWriteContig(0, 1024, 1<<20)
	f.Close()
	found := false
	for _, op := range c.ops {
		if op.Kind == darshan.OpExchange && op.Size == 1024 {
			found = true
		}
	}
	if !found {
		t.Error("collective write emitted no exchange op")
	}
}

func TestCollectiveWriteNoncontigSieves(t *testing.T) {
	var c capture
	f := Open(0, 4, 1, 2, true, c.emit)
	pieces := []Piece{{0, 512}, {2048, 512}, {4096, 512}, {-1, 0}}
	f.CollectiveWriteNoncontig(pieces)
	f.Close()

	cnt := f.Counters()
	if cnt[CollWrites] != 1 {
		t.Errorf("MPIIO_COLL_WRITES = %v, want 1 (one collective call)", cnt[CollWrites])
	}
	if cnt[BytesWritten] != 1536 {
		t.Errorf("MPIIO bytes = %v", cnt[BytesWritten])
	}
	// The MPI-IO layer sees one medium request; POSIX sees 3 small synced
	// writes — the E2E disparity the paper diagnoses.
	if cnt[SizeWrite1K_10K] != 1 {
		t.Errorf("aggregate size bucket wrong: %v", cnt)
	}
	writes, fsyncs := 0, 0
	for _, op := range c.ops {
		switch op.Kind {
		case darshan.OpWrite:
			writes++
			if op.Size != 512 {
				t.Errorf("POSIX write size %d", op.Size)
			}
		case darshan.OpFsync:
			fsyncs++
		}
	}
	if writes != 3 || fsyncs != 3 {
		t.Errorf("sieved lowering: %d writes, %d fsyncs; want 3/3", writes, fsyncs)
	}
}
