package darshan

import (
	"sort"
)

// OpKind is the kind of a POSIX I/O operation observed by the Collector.
type OpKind uint8

// The operation kinds the Collector understands. They correspond to the
// POSIX calls Darshan instruments at the layer AIIO uses.
const (
	OpOpen OpKind = iota
	OpClose
	OpRead
	OpWrite
	OpSeek
	OpStat
	OpFsync
	// OpExchange models middleware work that POSIX never sees — the data
	// exchange and synchronization of two-phase collective I/O. The
	// collector ignores it entirely (no POSIX counter moves), but the
	// simulator charges its client time; this is exactly the upper-layer
	// information the paper's MPI-IO/HDF5 limitation is about.
	OpExchange
)

// Op is a single POSIX I/O operation issued by one process. Offset and Size
// are meaningful for reads and writes; Offset is meaningful for seeks.
// MemUnaligned marks reads/writes whose user buffer violates the memory
// alignment Darshan checks (POSIX_MEM_NOT_ALIGNED).
type Op struct {
	Kind         OpKind
	File         int32
	Offset       int64
	Size         int64
	MemUnaligned bool
}

// maxTrackedValues bounds the per-process stride/access-size tracking tables.
// Darshan itself keeps fixed-size common-value counters; once the table is
// full, previously unseen values are dropped, which matches its behaviour of
// only reporting values common enough to matter.
const maxTrackedValues = 1024

// fileState tracks per-(process,file) access history needed for
// sequential/consecutive/stride detection.
type fileState struct {
	lastEnd   int64
	lastKind  OpKind
	everRead  bool
	everWrite bool
	touched   bool
}

// ProcCollector accumulates counters for a single process. It is not safe
// for concurrent use; run one per goroutine and merge with Collector.Merge.
type ProcCollector struct {
	opens, seeks, stats           int64
	reads, writes                 int64
	memNotAligned, fileNotAligned int64
	consecReads, consecWrites     int64
	seqReads, seqWrites           int64
	rwSwitches                    int64
	bytesRead, bytesWritten       int64
	readHist, writeHist           [5]int64
	strides                       map[int64]int64
	accesses                      map[int64]int64
	files                         map[int32]*fileState
	fileAlign                     int64
}

// NewProcCollector returns a collector for one process. fileAlign is the file
// alignment boundary (POSIX_FILE_ALIGNMENT) against which offsets are
// checked.
func NewProcCollector(fileAlign int64) *ProcCollector {
	if fileAlign <= 0 {
		fileAlign = 1
	}
	return &ProcCollector{
		strides:   make(map[int64]int64),
		accesses:  make(map[int64]int64),
		files:     make(map[int32]*fileState),
		fileAlign: fileAlign,
	}
}

func (p *ProcCollector) file(id int32) *fileState {
	fs := p.files[id]
	if fs == nil {
		fs = &fileState{}
		p.files[id] = fs
	}
	return fs
}

func (p *ProcCollector) track(m map[int64]int64, v int64) {
	if _, ok := m[v]; ok {
		m[v]++
		return
	}
	if len(m) < maxTrackedValues {
		m[v] = 1
	}
}

// Observe records one operation.
func (p *ProcCollector) Observe(op Op) {
	switch op.Kind {
	case OpOpen:
		p.opens++
	case OpStat:
		p.stats++
	case OpSeek:
		p.seeks++
		// An lseek repositions the file pointer but is not itself a data
		// access; sequentiality is judged from data access offsets only.
	case OpRead, OpWrite:
		p.observeAccess(op)
	case OpClose, OpFsync:
		// No dedicated counters in the AIIO 45-counter subset.
	case OpExchange:
		// Middleware-internal: invisible at the POSIX layer.
	}
}

func (p *ProcCollector) observeAccess(op Op) {
	fs := p.file(op.File)
	isWrite := op.Kind == OpWrite

	if op.MemUnaligned {
		p.memNotAligned++
	}
	if op.Offset%p.fileAlign != 0 {
		p.fileNotAligned++
	}

	if fs.touched {
		if (fs.lastKind == OpWrite) != isWrite {
			p.rwSwitches++
		}
		delta := op.Offset - fs.lastEnd
		if op.Offset >= fs.lastEnd {
			if isWrite {
				p.seqWrites++
				if delta == 0 {
					p.consecWrites++
				}
			} else {
				p.seqReads++
				if delta == 0 {
					p.consecReads++
				}
			}
		}
		if delta > 0 {
			p.track(p.strides, delta)
		}
	}
	p.track(p.accesses, op.Size)

	if isWrite {
		p.writes++
		p.bytesWritten += op.Size
		p.writeHist[sizeBucket(op.Size, 0)]++
		fs.everWrite = true
	} else {
		p.reads++
		p.bytesRead += op.Size
		p.readHist[sizeBucket(op.Size, 0)]++
		fs.everRead = true
	}
	fs.lastEnd = op.Offset + op.Size
	fs.lastKind = op.Kind
	fs.touched = true
}

// Collector aggregates per-process collectors into a job-level Record,
// mirroring how Darshan reduces shared-file records across ranks.
type Collector struct {
	fileAlign int64
	memAlign  int64
	procs     []*ProcCollector
}

// NewCollector creates a job-level collector for nprocs processes.
// memAlign and fileAlign become the POSIX_MEM_ALIGNMENT and
// POSIX_FILE_ALIGNMENT counter values.
func NewCollector(nprocs int, memAlign, fileAlign int64) *Collector {
	c := &Collector{fileAlign: fileAlign, memAlign: memAlign}
	c.procs = make([]*ProcCollector, nprocs)
	for i := range c.procs {
		c.procs[i] = NewProcCollector(fileAlign)
	}
	return c
}

// Proc returns the collector for process rank. Each ProcCollector may be
// driven from its own goroutine.
func (c *Collector) Proc(rank int) *ProcCollector { return c.procs[rank] }

type valueCount struct {
	value int64
	count int64
}

// topK reduces a merged value→count table to the k most common values,
// breaking count ties by smaller value for determinism.
func topK(m map[int64]int64, k int) []valueCount {
	vc := make([]valueCount, 0, len(m))
	for v, n := range m {
		vc = append(vc, valueCount{v, n})
	}
	sort.Slice(vc, func(i, j int) bool {
		if vc[i].count != vc[j].count {
			return vc[i].count > vc[j].count
		}
		return vc[i].value < vc[j].value
	})
	if len(vc) > k {
		vc = vc[:k]
	}
	return vc
}

// Finalize merges all process collectors and produces the job Record.
// stripeSize and stripeWidth describe the Lustre layout of the file(s) the
// job accessed. The performance tag is not set here; the caller derives it
// from the simulator's slowest-process time (Eq. 1).
func (c *Collector) Finalize(stripeSize int64, stripeWidth int) *Record {
	rec := &Record{}
	rec.Counters[NProcs] = float64(len(c.procs))
	rec.Counters[LustreStripeSize] = float64(stripeSize)
	rec.Counters[LustreStripeWidth] = float64(stripeWidth)
	rec.Counters[PosixMemAlignment] = float64(c.memAlign)
	rec.Counters[PosixFileAlignment] = float64(c.fileAlign)

	strides := make(map[int64]int64)
	accesses := make(map[int64]int64)
	for _, p := range c.procs {
		rec.Counters[PosixOpens] += float64(p.opens)
		rec.Counters[PosixSeeks] += float64(p.seeks)
		rec.Counters[PosixStats] += float64(p.stats)
		rec.Counters[PosixReads] += float64(p.reads)
		rec.Counters[PosixWrites] += float64(p.writes)
		rec.Counters[PosixMemNotAligned] += float64(p.memNotAligned)
		rec.Counters[PosixFileNotAligned] += float64(p.fileNotAligned)
		rec.Counters[PosixBytesRead] += float64(p.bytesRead)
		rec.Counters[PosixBytesWritten] += float64(p.bytesWritten)
		rec.Counters[PosixConsecReads] += float64(p.consecReads)
		rec.Counters[PosixConsecWrites] += float64(p.consecWrites)
		rec.Counters[PosixSeqReads] += float64(p.seqReads)
		rec.Counters[PosixSeqWrites] += float64(p.seqWrites)
		rec.Counters[PosixRWSwitches] += float64(p.rwSwitches)
		for i := 0; i < 5; i++ {
			rec.Counters[PosixSizeRead0_100+CounterID(i)] += float64(p.readHist[i])
			rec.Counters[PosixSizeWrite0_100+CounterID(i)] += float64(p.writeHist[i])
		}
		for v, n := range p.strides {
			strides[v] += n
		}
		for v, n := range p.accesses {
			accesses[v] += n
		}
	}

	for i, vc := range topK(strides, 4) {
		rec.Counters[PosixStride1Stride+CounterID(i)] = float64(vc.value)
		rec.Counters[PosixStride1Count+CounterID(i)] = float64(vc.count)
	}
	for i, vc := range topK(accesses, 4) {
		rec.Counters[PosixAccess1Access+CounterID(i)] = float64(vc.value)
		rec.Counters[PosixAccess1Count+CounterID(i)] = float64(vc.count)
	}
	return rec
}
