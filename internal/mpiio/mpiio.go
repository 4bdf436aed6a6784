// Package mpiio implements an MPI-IO-like middleware layer above the POSIX
// operation stream: independent and collective file operations that lower to
// POSIX ops (two-phase aggregation for collectives) while recording the
// MPI-IO-level counters of Darshan's MPIIO module.
//
// The paper's Section 1 limitation says AIIO "only considers POSIX-IO
// counters" and that "one may use I/O counters from MPI-IO and HDF5 in AI
// models; however, we did not attempt that". This package supplies the
// missing substrate: applications written against it produce both the POSIX
// record (through the usual collector/simulator pipeline) and the MPIIO
// counter vector, and the extended-features experiment measures what the
// upper-layer counters add. HDF5 parallel I/O maps onto MPI-IO, so the same
// counters stand in for the HDF5 layer.
package mpiio

import "github.com/hpc-repro/aiio/internal/darshan"

// CounterID indexes the MPI-IO counter vector.
type CounterID int

// The MPIIO-module counters (a faithful subset of Darshan's MPIIO_* set).
const (
	IndepOpens CounterID = iota
	CollOpens
	IndepReads
	IndepWrites
	CollReads
	CollWrites
	Syncs
	BytesRead
	BytesWritten
	RWSwitches
	SizeWrite0_100
	SizeWrite100_1K
	SizeWrite1K_10K
	SizeWrite10K_100K
	SizeWrite100K_1M
	SizeRead0_100
	SizeRead100_1K
	SizeRead1K_10K
	SizeRead10K_100K
	SizeRead100K_1M

	NumCounters
)

// Counters is one rank's MPIIO counter vector; Merge sums ranks like
// Darshan's shared-record reduction.
type Counters [NumCounters]float64

// Merge adds o into c.
func (c *Counters) Merge(o *Counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func sizeBucket(size int64, base CounterID) CounterID {
	switch {
	case size <= 100:
		return base
	case size <= 1024:
		return base + 1
	case size <= 10*1024:
		return base + 2
	case size <= 100*1024:
		return base + 3
	default:
		return base + 4
	}
}

// File is one rank's handle on an MPI-IO file. It lowers operations to the
// POSIX stream via emit and records the rank's MPIIO counters. Like the
// other per-rank state in this repository, a File is driven from one
// goroutine.
type File struct {
	rank, nprocs int
	// aggRatio is ranks-per-aggregator for two-phase collectives
	// (ROMIO's cb_nodes knob expressed as a divisor).
	aggRatio int
	fileID   int32
	emit     func(darshan.Op)
	c        Counters
	lastEnd  int64
}

// Open opens the file on this rank. collective marks MPI_File_open on the
// communicator (counted once per rank as Darshan does).
func Open(rank, nprocs int, fileID int32, aggRatio int, collective bool, emit func(darshan.Op)) *File {
	if aggRatio < 1 {
		aggRatio = 1
	}
	if nprocs < 1 {
		nprocs = 1
	}
	f := &File{rank: rank, nprocs: nprocs, aggRatio: aggRatio, fileID: fileID, emit: emit}
	if collective {
		f.c[CollOpens]++
	} else {
		f.c[IndepOpens]++
	}
	f.emit(darshan.Op{Kind: darshan.OpOpen, File: fileID})
	return f
}

// Counters returns the rank's MPIIO counters accumulated so far.
func (f *File) Counters() *Counters { return &f.c }

// accountWrite records size bytes written. The applications in this
// repository only write through the MPI-IO layer, so the read and
// read/write-switch counters stay zero.
func (f *File) accountWrite(size int64) {
	f.c[BytesWritten] += float64(size)
	f.c[sizeBucket(size, SizeWrite0_100)]++
}

// WriteAt is an independent write (MPI_File_write_at): it lowers to a
// seek+write by this rank.
func (f *File) WriteAt(off, size int64) {
	f.c[IndepWrites]++
	f.accountWrite(size)
	if off != f.lastEnd {
		f.emit(darshan.Op{Kind: darshan.OpSeek, File: f.fileID, Offset: off})
	}
	f.emit(darshan.Op{Kind: darshan.OpWrite, File: f.fileID, Offset: off, Size: size})
	f.lastEnd = off + size
}

// Sync lowers MPI_File_sync to fsync.
func (f *File) Sync() {
	f.c[Syncs]++
	f.emit(darshan.Op{Kind: darshan.OpFsync, File: f.fileID})
}

// Close flushes and closes the rank's handle.
func (f *File) Close() {
	f.emit(darshan.Op{Kind: darshan.OpClose, File: f.fileID})
}

// isAggregator reports whether this rank writes in two-phase collectives.
func (f *File) isAggregator() bool { return f.rank%f.aggRatio == 0 }

// groupSpan returns this rank's aggregation group [first, first+len) ranks.
func (f *File) groupSpan() (first, n int) {
	first = (f.rank / f.aggRatio) * f.aggRatio
	n = f.aggRatio
	if first+n > f.nprocs {
		n = f.nprocs - first
	}
	return first, n
}

// CollectiveWriteContig is MPI_File_write_at_all for the common
// contiguous-by-rank decomposition: rank r contributes perRank bytes at
// base + r·perRank. Two-phase I/O makes each aggregator write its group's
// merged extent in chunk-sized POSIX writes; every rank still counts one
// collective write of its own perRank bytes, exactly as Darshan's MPIIO
// module sees it.
func (f *File) CollectiveWriteContig(base, perRank, chunk int64) {
	f.c[CollWrites]++
	f.accountWrite(perRank)
	f.exchange(perRank)
	if !f.isAggregator() || perRank <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 4 << 20
	}
	first, n := f.groupSpan()
	start := base + int64(first)*perRank
	total := int64(n) * perRank
	f.lowerMerged(start, total, chunk)
}

// CollectiveWriteGathered is MPI_File_write_at_all with a single aggregator
// (ROMIO cb_nodes=1): every rank contributes perRank bytes at
// base + r·perRank; rank 0 gathers and writes the merged region. This is the
// usual lowering for small metadata/attribute regions.
func (f *File) CollectiveWriteGathered(base, perRank, chunk int64) {
	f.c[CollWrites]++
	f.accountWrite(perRank)
	f.exchange(perRank)
	if f.rank != 0 || perRank <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 4 << 20
	}
	f.lowerMerged(base, int64(f.nprocs)*perRank, chunk)
}

// Piece is one extent of a noncontiguous (derived-datatype) access.
type Piece struct {
	Off, Size int64
}

// CollectiveWriteNoncontig is MPI_File_write_at_all with a noncontiguous
// filetype whose pieces interleave with other ranks' data at sub-chunk
// granularity, so two-phase aggregation cannot form contiguous file
// domains. ROMIO then falls back to data sieving: every piece becomes a
// synchronous lock + read-modify-write round, modeled as a seek + write +
// fsync per piece. Darshan's MPIIO module still sees one collective write
// of the summed bytes per rank — which is why the paper's E2E run looks
// reasonable at the MPI-IO level while the POSIX level shows the disaster.
func (f *File) CollectiveWriteNoncontig(pieces []Piece) {
	f.c[CollWrites]++
	var total int64
	for _, p := range pieces {
		if p.Size <= 0 {
			continue
		}
		total += p.Size
		if p.Off != f.lastEnd {
			f.emit(darshan.Op{Kind: darshan.OpSeek, File: f.fileID, Offset: p.Off})
		}
		f.emit(darshan.Op{Kind: darshan.OpWrite, File: f.fileID, Offset: p.Off, Size: p.Size})
		f.emit(darshan.Op{Kind: darshan.OpFsync, File: f.fileID})
		f.lastEnd = p.Off + p.Size
	}
	f.accountWrite(total)
	f.exchange(total)
}

// exchange emits the POSIX-invisible two-phase data exchange every rank
// participates in.
func (f *File) exchange(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	f.emit(darshan.Op{Kind: darshan.OpExchange, File: f.fileID, Size: bytes})
}

// lowerMerged emits the aggregator's contiguous POSIX writes.
func (f *File) lowerMerged(start, total, chunk int64) {
	for off := start; off < start+total; off += chunk {
		n := chunk
		if off+n > start+total {
			n = start + total - off
		}
		if off != f.lastEnd {
			f.emit(darshan.Op{Kind: darshan.OpSeek, File: f.fileID, Offset: off})
		}
		f.emit(darshan.Op{Kind: darshan.OpWrite, File: f.fileID, Offset: off, Size: n})
		f.lastEnd = off + n
	}
}
