package darshan

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterCount(t *testing.T) {
	if NumCounters != 45 {
		t.Fatalf("NumCounters = %d, paper uses 45", NumCounters)
	}
}

func TestCounterNamesRoundTrip(t *testing.T) {
	names := CounterNames()
	if len(names) != int(NumCounters) {
		t.Fatalf("CounterNames returned %d names", len(names))
	}
	seen := make(map[string]bool)
	for i, name := range names {
		if name == "" {
			t.Fatalf("counter %d has empty name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
		id, ok := CounterByName(name)
		if !ok || id != CounterID(i) {
			t.Fatalf("CounterByName(%q) = %v, %v; want %d, true", name, id, ok, i)
		}
	}
	if _, ok := CounterByName("POSIX_DUPS"); ok {
		t.Fatal("POSIX_DUPS should be excluded (nearly-empty counter)")
	}
}

func TestCounterIDString(t *testing.T) {
	if got := PosixSeeks.String(); got != "POSIX_SEEKS" {
		t.Errorf("PosixSeeks.String() = %q", got)
	}
	if got := CounterID(-1).String(); !strings.Contains(got, "-1") {
		t.Errorf("out-of-range String() = %q", got)
	}
	if got := NumCounters.String(); !strings.Contains(got, "45") {
		t.Errorf("NumCounters.String() = %q", got)
	}
}

func TestSizeBuckets(t *testing.T) {
	cases := []struct {
		size int64
		want CounterID
	}{
		{0, PosixSizeWrite0_100},
		{100, PosixSizeWrite0_100},
		{101, PosixSizeWrite100_1K},
		{1024, PosixSizeWrite100_1K},
		{1025, PosixSizeWrite1K_10K},
		{10 * 1024, PosixSizeWrite1K_10K},
		{10*1024 + 1, PosixSizeWrite10K_100K},
		{100 * 1024, PosixSizeWrite10K_100K},
		{100*1024 + 1, PosixSizeWrite100K_1M},
		{1 << 20, PosixSizeWrite100K_1M},
		{1 << 30, PosixSizeWrite100K_1M},
	}
	for _, c := range cases {
		if got := sizeBucket(c.size, PosixSizeWrite0_100); got != c.want {
			t.Errorf("write bucket of %d = %s, want %s", c.size, got, c.want)
		}
	}
	if got := sizeBucket(1024, PosixSizeRead0_100); got != PosixSizeRead100_1K {
		t.Errorf("read bucket of 1024 = %s", got)
	}
}

func TestReadWriteCounterClassification(t *testing.T) {
	for id := CounterID(0); id < NumCounters; id++ {
		if id.IsReadCounter() && id.IsWriteCounter() {
			t.Errorf("%s classified as both read and write", id)
		}
	}
	if !PosixBytesRead.IsReadCounter() || !PosixSizeWrite0_100.IsWriteCounter() {
		t.Error("classification of representative counters failed")
	}
	if PosixSeeks.IsReadCounter() || PosixSeeks.IsWriteCounter() {
		t.Error("POSIX_SEEKS is neither read- nor write-only")
	}
}

// seqWrite drives p with n sequential writes of size sz starting at offset 0.
func seqWrite(p *ProcCollector, file int32, n int, sz int64) {
	off := int64(0)
	for i := 0; i < n; i++ {
		p.Observe(Op{Kind: OpWrite, File: file, Offset: off, Size: sz})
		off += sz
	}
}

func TestCollectorSequentialWrite(t *testing.T) {
	c := NewCollector(2, 8, 1<<20)
	for rank := 0; rank < 2; rank++ {
		p := c.Proc(rank)
		p.Observe(Op{Kind: OpOpen, File: 1})
		seqWrite(p, 1, 10, 1024)
		p.Observe(Op{Kind: OpClose, File: 1})
	}
	rec := c.Finalize(1<<20, 1)

	if got := rec.Counter(NProcs); got != 2 {
		t.Errorf("nprocs = %v", got)
	}
	if got := rec.Counter(PosixOpens); got != 2 {
		t.Errorf("POSIX_OPENS = %v", got)
	}
	if got := rec.Counter(PosixWrites); got != 20 {
		t.Errorf("POSIX_WRITES = %v", got)
	}
	if got := rec.Counter(PosixBytesWritten); got != 20*1024 {
		t.Errorf("POSIX_BYTES_WRITTEN = %v", got)
	}
	// 10 writes per proc => 9 transitions, all consecutive.
	if got := rec.Counter(PosixConsecWrites); got != 18 {
		t.Errorf("POSIX_CONSEC_WRITES = %v, want 18", got)
	}
	if got := rec.Counter(PosixSeqWrites); got != 18 {
		t.Errorf("POSIX_SEQ_WRITES = %v, want 18", got)
	}
	if got := rec.Counter(PosixSizeWrite100_1K); got != 20 {
		t.Errorf("POSIX_SIZE_WRITE_100_1K = %v", got)
	}
	// Offsets 0,1024,... are all unaligned w.r.t. 1 MiB except offset 0.
	if got := rec.Counter(PosixFileNotAligned); got != 18 {
		t.Errorf("POSIX_FILE_NOT_ALIGNED = %v, want 18", got)
	}
	// All accesses the same size: ACCESS1 dominates.
	if got := rec.Counter(PosixAccess1Access); got != 1024 {
		t.Errorf("POSIX_ACCESS1_ACCESS = %v", got)
	}
	if got := rec.Counter(PosixAccess1Count); got != 20 {
		t.Errorf("POSIX_ACCESS1_COUNT = %v", got)
	}
	// Consecutive accesses have stride 0, which is not recorded.
	if got := rec.Counter(PosixStride1Count); got != 0 {
		t.Errorf("POSIX_STRIDE1_COUNT = %v, want 0 for consecutive writes", got)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// A write-only job must have zero read counters (robustness precondition).
	for id := CounterID(0); id < NumCounters; id++ {
		if id.IsReadCounter() && rec.Counter(id) != 0 {
			t.Errorf("write-only job has nonzero read counter %s = %v", id, rec.Counter(id))
		}
	}
}

func TestCollectorStridedRead(t *testing.T) {
	c := NewCollector(1, 8, 1<<20)
	p := c.Proc(0)
	p.Observe(Op{Kind: OpOpen, File: 1})
	off := int64(0)
	const stride = 4096
	const sz = 1024
	for i := 0; i < 100; i++ {
		p.Observe(Op{Kind: OpSeek, File: 1, Offset: off})
		p.Observe(Op{Kind: OpRead, File: 1, Offset: off, Size: sz})
		off += stride
	}
	rec := c.Finalize(1<<20, 1)
	if got := rec.Counter(PosixSeeks); got != 100 {
		t.Errorf("POSIX_SEEKS = %v", got)
	}
	// Gap between accesses is stride-sz = 3072, 99 times.
	if got := rec.Counter(PosixStride1Stride); got != stride-sz {
		t.Errorf("POSIX_STRIDE1_STRIDE = %v, want %d", got, stride-sz)
	}
	if got := rec.Counter(PosixStride1Count); got != 99 {
		t.Errorf("POSIX_STRIDE1_COUNT = %v, want 99", got)
	}
	// Forward strided reads are sequential but not consecutive.
	if got := rec.Counter(PosixSeqReads); got != 99 {
		t.Errorf("POSIX_SEQ_READS = %v, want 99", got)
	}
	if got := rec.Counter(PosixConsecReads); got != 0 {
		t.Errorf("POSIX_CONSEC_READS = %v, want 0", got)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCollectorRWSwitchesAndMemAlignment(t *testing.T) {
	c := NewCollector(1, 8, 1<<20)
	p := c.Proc(0)
	p.Observe(Op{Kind: OpWrite, File: 1, Offset: 0, Size: 100})
	p.Observe(Op{Kind: OpRead, File: 1, Offset: 100, Size: 100, MemUnaligned: true})
	p.Observe(Op{Kind: OpWrite, File: 1, Offset: 200, Size: 100})
	p.Observe(Op{Kind: OpStat, File: 1})
	rec := c.Finalize(1<<20, 1)
	if got := rec.Counter(PosixRWSwitches); got != 2 {
		t.Errorf("POSIX_RW_SWITCHES = %v, want 2", got)
	}
	if got := rec.Counter(PosixMemNotAligned); got != 1 {
		t.Errorf("POSIX_MEM_NOT_ALIGNED = %v, want 1", got)
	}
	if got := rec.Counter(PosixStats); got != 1 {
		t.Errorf("POSIX_STATS = %v, want 1", got)
	}
}

func TestCollectorBackwardAccessNotSequential(t *testing.T) {
	c := NewCollector(1, 8, 1<<20)
	p := c.Proc(0)
	p.Observe(Op{Kind: OpRead, File: 1, Offset: 1 << 20, Size: 1024})
	p.Observe(Op{Kind: OpRead, File: 1, Offset: 0, Size: 1024}) // backward
	rec := c.Finalize(1<<20, 1)
	if got := rec.Counter(PosixSeqReads); got != 0 {
		t.Errorf("POSIX_SEQ_READS = %v, want 0 for backward access", got)
	}
	if got := rec.Counter(PosixStride1Count); got != 0 {
		t.Errorf("negative stride should not be recorded, STRIDE1_COUNT = %v", got)
	}
}

func TestCollectorSeparateFilesIndependentHistory(t *testing.T) {
	c := NewCollector(1, 8, 1<<20)
	p := c.Proc(0)
	// Interleave two files; each individually consecutive.
	for i := int64(0); i < 5; i++ {
		p.Observe(Op{Kind: OpWrite, File: 1, Offset: i * 100, Size: 100})
		p.Observe(Op{Kind: OpWrite, File: 2, Offset: i * 100, Size: 100})
	}
	rec := c.Finalize(1<<20, 1)
	if got := rec.Counter(PosixConsecWrites); got != 8 {
		t.Errorf("POSIX_CONSEC_WRITES = %v, want 8 (4 per file)", got)
	}
	if got := rec.Counter(PosixRWSwitches); got != 0 {
		t.Errorf("POSIX_RW_SWITCHES = %v, want 0", got)
	}
}

func TestTopKDeterminism(t *testing.T) {
	m := map[int64]int64{10: 5, 20: 5, 30: 7, 40: 1, 50: 5}
	got := topK(m, 4)
	want := []valueCount{{30, 7}, {10, 5}, {20, 5}, {50, 5}}
	if len(got) != len(want) {
		t.Fatalf("topK returned %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("topK[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecordSparsityAndNonZero(t *testing.T) {
	rec := &Record{}
	if got := rec.Sparsity(); got != 1 {
		t.Errorf("empty record sparsity = %v, want 1", got)
	}
	rec.SetCounter(PosixReads, 5)
	rec.SetCounter(PosixBytesRead, 100)
	nz := rec.NonZero()
	if len(nz) != 2 || nz[0] != PosixReads || nz[1] != PosixBytesRead {
		t.Errorf("NonZero = %v", nz)
	}
	want := float64(NumCounters-2) / float64(NumCounters)
	if got := rec.Sparsity(); got != want {
		t.Errorf("sparsity = %v, want %v", got, want)
	}
}

func TestRecordValidateCatchesViolations(t *testing.T) {
	rec := &Record{}
	rec.SetCounter(PosixReads, 3) // histogram empty -> mismatch
	if err := rec.Validate(); err == nil {
		t.Error("Validate accepted histogram mismatch")
	}
	rec = &Record{}
	rec.SetCounter(PosixSeeks, -1)
	if err := rec.Validate(); err == nil {
		t.Error("Validate accepted negative counter")
	}
	rec = &Record{}
	rec.SetCounter(PosixConsecWrites, 2)
	rec.SetCounter(PosixSeqWrites, 1)
	if err := rec.Validate(); err == nil {
		t.Error("Validate accepted consec > seq")
	}
}

func TestLogRoundTrip(t *testing.T) {
	rec := &Record{JobID: 42, App: "ior", Year: 2021, PerfMiBps: 412.7, SlowestSeconds: 1.5}
	rec.SetCounter(NProcs, 256)
	rec.SetCounter(PosixWrites, 262144)
	rec.SetCounter(PosixBytesWritten, 268435456)
	rec.SetCounter(PosixStride1Stride, 3072)

	var buf bytes.Buffer
	if err := WriteLog(&buf, rec); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	got, err := ParseLog(&buf)
	if err != nil {
		t.Fatalf("ParseLog: %v", err)
	}
	if *got != *rec {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, rec)
	}
}

func TestParseLogIgnoresUnknownCounters(t *testing.T) {
	in := "# jobid: 7\nPOSIX_DUPS\t99\nPOSIX_READS\t3\n"
	rec, err := ParseLog(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseLog: %v", err)
	}
	if rec.JobID != 7 || rec.Counter(PosixReads) != 3 {
		t.Errorf("parsed record = %+v", rec)
	}
}

func TestParseLogErrors(t *testing.T) {
	cases := []string{
		"POSIX_READS\tnot-a-number\n",
		"POSIX_READS 1 2\n",
		"# jobid: abc\n",
		"# year: x\n",
		"# performance_mibps: y\n",
		"# slowest_seconds: z\n",
	}
	for _, in := range cases {
		if _, err := ParseLog(strings.NewReader(in)); err == nil {
			t.Errorf("ParseLog accepted %q", in)
		}
	}
}

// TestParseLogRejectsMultiRecordBody: a version header after a record's
// content opens a second job, and ParseLog must say so rather than merge
// the two into a job that never ran (job 2's App and JobID with job 1's
// reads and job 2's writes). A comment before the first header is no
// record, so it does not count.
func TestParseLogRejectsMultiRecordBody(t *testing.T) {
	job1 := "# darshan log version: aiio-1.0\n# exe: a\n# jobid: 1\nPOSIX_READS\t4\n"
	job2 := "# darshan log version: aiio-1.0\n# exe: b\n# jobid: 2\nPOSIX_WRITES\t7\n"
	rec, err := ParseLog(strings.NewReader(job1 + job2))
	if err == nil {
		t.Fatalf("ParseLog merged two jobs into app %q, job %d, reads %v, writes %v",
			rec.App, rec.JobID, rec.Counter(PosixReads), rec.Counter(PosixWrites))
	}
	if !errors.Is(err, ErrSecondRecord) || err.Error() != "darshan: line 5: a second record starts here" {
		t.Errorf("ParseLog error = %q, want line 5 and ErrSecondRecord", err)
	}

	rec, err = ParseLog(strings.NewReader("# produced by site-sweep v2\n\n" + job1))
	if err != nil || rec.App != "a" || rec.JobID != 1 || rec.Counter(PosixReads) != 4 {
		t.Errorf("ParseLog after a comment preamble = %+v, %v; want job 1", rec, err)
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	ds := &Dataset{}
	for i := 0; i < 5; i++ {
		rec := &Record{JobID: int64(i), App: "app", Year: 2019 + i%4, PerfMiBps: float64(i) * 10}
		rec.SetCounter(PosixReads, float64(i))
		rec.SetCounter(PosixSizeRead0_100, float64(i))
		ds.Append(rec)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	got, err := ParseDataset(&buf)
	if err != nil {
		t.Fatalf("ParseDataset: %v", err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("round trip lost records: got %d want %d", got.Len(), ds.Len())
	}
	for i := range ds.Records {
		if *got.Records[i] != *ds.Records[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
	sum := got.YearSummary()
	if len(sum) != 4 {
		t.Errorf("YearSummary = %v", sum)
	}
}

func TestDatasetAverageSparsity(t *testing.T) {
	ds := &Dataset{}
	if got := ds.AverageSparsity(); got != 0 {
		t.Errorf("empty dataset sparsity = %v", got)
	}
	full := &Record{}
	for id := CounterID(0); id < NumCounters; id++ {
		full.SetCounter(id, 1)
	}
	ds.Append(full)
	ds.Append(&Record{}) // all zeros
	if got := ds.AverageSparsity(); got != 0.5 {
		t.Errorf("AverageSparsity = %v, want 0.5", got)
	}
}

// TestCollectorInvariantsProperty checks the Darshan structural invariants
// over random operation streams.
func TestCollectorInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 1 + rng.Intn(4)
		c := NewCollector(nprocs, 8, 1<<20)
		for rank := 0; rank < nprocs; rank++ {
			p := c.Proc(rank)
			nops := rng.Intn(200)
			for i := 0; i < nops; i++ {
				op := Op{
					Kind:         OpKind(rng.Intn(7)),
					File:         int32(rng.Intn(3)),
					Offset:       int64(rng.Intn(1 << 22)),
					Size:         int64(rng.Intn(1 << 21)),
					MemUnaligned: rng.Intn(2) == 0,
				}
				p.Observe(op)
			}
		}
		rec := c.Finalize(1<<20, 4)
		if err := rec.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Reads+writes bytes must match histogram-weighted op counts loosely:
		// total ops in histograms equals POSIX_READS + POSIX_WRITES.
		var hist float64
		for b := PosixSizeRead0_100; b <= PosixSizeWrite100K_1M; b++ {
			hist += rec.Counter(b)
		}
		return hist == rec.Counter(PosixReads)+rec.Counter(PosixWrites)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorMergeEquivalence: running the same ops through one proc in
// two collectors and merging must equal counters from doubled stream.
func TestCollectorDeterminism(t *testing.T) {
	build := func() *Record {
		c := NewCollector(3, 8, 1<<20)
		for rank := 0; rank < 3; rank++ {
			p := c.Proc(rank)
			rng := rand.New(rand.NewSource(int64(rank)))
			for i := 0; i < 500; i++ {
				p.Observe(Op{
					Kind:   OpKind(rng.Intn(7)),
					File:   int32(rng.Intn(2)),
					Offset: int64(rng.Intn(1 << 20)),
					Size:   int64(rng.Intn(1 << 16)),
				})
			}
		}
		return c.Finalize(1<<20, 2)
	}
	a, b := build(), build()
	if *a != *b {
		t.Error("collector output is not deterministic")
	}
}

func BenchmarkCollectorObserve(b *testing.B) {
	c := NewCollector(1, 8, 1<<20)
	p := c.Proc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(Op{Kind: OpWrite, File: 1, Offset: int64(i) * 1024, Size: 1024})
	}
}

func TestParseDatasetLenientQuarantinesBadRecords(t *testing.T) {
	good := func(id int64) string {
		return fmt.Sprintf("# darshan log version: aiio-1.0\n# jobid: %d\n# performance_mibps: 100\nPOSIX_READS\t4\nPOSIX_SIZE_READ_0_100\t4\n", id)
	}
	stream := good(1) +
		"# darshan log version: aiio-1.0\nPOSIX_READS broken line with too many fields\n" + // malformed
		good(2) +
		"# darshan log version: aiio-1.0\n# performance_mibps: nan\nPOSIX_WRITES\t1\n" + // NaN perf tag
		"# darshan log version: aiio-1.0\nPOSIX_READS\t-5\n" + // negative counter
		good(3)

	ds, quarantine, err := ParseDatasetLenient(strings.NewReader(stream))
	if err != nil {
		t.Fatalf("lenient parse returned a hard error: %v", err)
	}
	if ds.Len() != 3 {
		t.Fatalf("accepted %d records, want 3", ds.Len())
	}
	if len(quarantine) != 3 {
		t.Fatalf("quarantined %d records, want 3: %v", len(quarantine), quarantine)
	}
	wantIdx := []int{1, 3, 4}
	for i, q := range quarantine {
		if q.Index != wantIdx[i] {
			t.Errorf("quarantine[%d].Index = %d, want %d", i, q.Index, wantIdx[i])
		}
		if q.Line <= 0 {
			t.Errorf("quarantine[%d].Line = %d, want positive", i, q.Line)
		}
		if q.Error() == "" || q.Reason == "" {
			t.Errorf("quarantine[%d] has empty reason", i)
		}
	}
	for i, rec := range ds.Records {
		if reason := vetRecord(rec); reason != "" {
			t.Errorf("accepted record %d fails vetting: %s", i, reason)
		}
	}
	// The strict parser aborts on the same stream.
	if _, err := ParseDataset(strings.NewReader(stream)); err == nil {
		t.Error("strict ParseDataset accepted a corrupt stream")
	}

	sum := QuarantineSummary(ds.Len(), quarantine)
	if !strings.Contains(sum, "3 records parsed") || !strings.Contains(sum, "3 quarantined") {
		t.Errorf("summary = %q", sum)
	}
	if got := QuarantineSummary(5, nil); !strings.Contains(got, "none quarantined") {
		t.Errorf("clean summary = %q", got)
	}
}

func TestParseDatasetLenientPureGarbage(t *testing.T) {
	ds, quarantine, err := ParseDatasetLenient(strings.NewReader("complete\ngarbage\nstream\n"))
	if err != nil {
		t.Fatalf("garbage must quarantine, not error: %v", err)
	}
	if ds.Len() != 0 || len(quarantine) != 1 {
		t.Fatalf("got %d records, %d quarantined; want 0 and 1", ds.Len(), len(quarantine))
	}
}

func TestParseDatasetLenientMatchesStrictOnCleanStream(t *testing.T) {
	var buf bytes.Buffer
	want := &Dataset{}
	for i := int64(1); i <= 4; i++ {
		rec := &Record{JobID: i, PerfMiBps: float64(i) * 10}
		rec.Counters[PosixReads] = float64(i)
		rec.Counters[PosixSizeRead0_100] = float64(i)
		want.Append(rec)
	}
	if err := WriteDataset(&buf, want); err != nil {
		t.Fatal(err)
	}
	ds, quarantine, err := ParseDatasetLenient(bytes.NewReader(buf.Bytes()))
	if err != nil || len(quarantine) != 0 {
		t.Fatalf("clean stream: err=%v quarantine=%v", err, quarantine)
	}
	if ds.Len() != want.Len() {
		t.Fatalf("lenient parsed %d records, want %d", ds.Len(), want.Len())
	}
	for i := range ds.Records {
		if ds.Records[i].Counters != want.Records[i].Counters || ds.Records[i].JobID != want.Records[i].JobID {
			t.Fatalf("record %d differs from strict round trip", i)
		}
	}
}

// TestParseDatasetSkipsBlankPreamble: whitespace before the first record,
// or between records, separates them and is no record of its own, for the
// strict parser as for the lenient one; so are comment lines before the
// first record, which hold no counter line. Parsing either would invent an
// all-zero job (app "", no counters, performance 0).
func TestParseDatasetSkipsBlankPreamble(t *testing.T) {
	want := &Dataset{}
	for i := int64(1); i <= 2; i++ {
		rec := &Record{JobID: i, App: "ior", PerfMiBps: float64(i) * 10}
		rec.Counters[PosixReads] = float64(i)
		want.Append(rec)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, want); err != nil {
		t.Fatal(err)
	}
	for _, pre := range []string{"\n", " \t\n\n", "# produced by site-sweep v2\n"} {
		stream := pre + buf.String()
		strict, err := ParseDataset(strings.NewReader(stream))
		if err != nil {
			t.Fatalf("preamble %q: %v", pre, err)
		}
		lenient, quarantine, err := ParseDatasetLenient(strings.NewReader(stream))
		if err != nil || len(quarantine) != 0 {
			t.Fatalf("preamble %q: lenient err=%v quarantine=%v", pre, err, quarantine)
		}
		for name, got := range map[string]*Dataset{"strict": strict, "lenient": lenient} {
			if got.Len() != want.Len() {
				t.Fatalf("preamble %q: %s parse found %d records, want %d", pre, name, got.Len(), want.Len())
			}
			for i := range got.Records {
				if *got.Records[i] != *want.Records[i] {
					t.Errorf("preamble %q: %s record %d differs: job %d, want job %d", pre, name, i, got.Records[i].JobID, want.Records[i].JobID)
				}
			}
		}
	}
}
