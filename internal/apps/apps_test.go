package apps

import (
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
)

func quietParams() iosim.Params {
	p := iosim.DefaultParams()
	p.NoiseSigma = 0
	return p
}

func TestE2EGeometry(t *testing.T) {
	cfg := PaperE2E()
	if g := cfg.Global(); g != [3]int{1024, 1024, 512} {
		t.Errorf("Global = %v, want (1024,1024,512)", g)
	}
	if got := cfg.TotalBytes(); got != int64(1024)*1024*512*8 {
		t.Errorf("TotalBytes = %d", got)
	}
	tuned := PaperE2ETuned()
	if g := tuned.Global(); g != [3]int{1024, 64, 32} {
		t.Errorf("tuned Global = %v, want (1024,64,32)", g)
	}
}

func TestE2ECoversGlobalArrayExactly(t *testing.T) {
	// Every byte of the global array must be written exactly once across
	// ranks in the untuned layout.
	cfg := PaperE2E().Scale(8) // (128,128,64)
	written := make(map[int64]int64)
	var total int64
	for rank := 0; rank < cfg.NProcs; rank++ {
		cfg.generate(rank, func(op darshan.Op) {
			if op.Kind == darshan.OpWrite {
				written[op.Offset] += op.Size
				total += op.Size
			}
		})
	}
	if total != cfg.TotalBytes() {
		t.Fatalf("wrote %d bytes, want %d", total, cfg.TotalBytes())
	}
	// Check no overlaps: offsets strictly partition the file.
	var covered int64
	for _, n := range written {
		covered += n
	}
	if covered != cfg.TotalBytes() {
		t.Errorf("covered %d bytes, want %d (overlap?)", covered, cfg.TotalBytes())
	}
}

func TestE2ESmallWriteSignature(t *testing.T) {
	cfg := PaperE2E().Scale(8)
	rec, _ := cfg.Run(1, 1, quietParams())
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	// Untuned E2E is dominated by small writes (pencil runs of bz*8 bytes).
	if rec.Counter(darshan.PosixSizeWrite100_1K) == 0 {
		t.Error("untuned E2E has no 100-1K writes")
	}
	tuned := PaperE2ETuned()
	trec, _ := tuned.Run(2, 1, quietParams())
	if trec.Counter(darshan.PosixSizeWrite100_1K) != 0 {
		t.Error("tuned E2E still issues 100-1K writes")
	}
	if trec.Counter(darshan.PosixSizeWrite100K_1M) == 0 {
		t.Error("tuned E2E issues no large writes")
	}
}

func TestE2ETuningSpeedup(t *testing.T) {
	// The paper reports 146x; require >= 30x at reduced scale.
	cfg := PaperE2E().Scale(4)
	tuned := PaperE2ETuned()
	_, res := cfg.Run(1, 1, quietParams())
	_, tres := tuned.Run(2, 1, quietParams())
	if f := tres.PerfMiBps / res.PerfMiBps; f < 30 {
		t.Errorf("E2E speedup = %.1fx, want >= 30x (%.2f -> %.2f MiB/s)",
			f, res.PerfMiBps, tres.PerfMiBps)
	}
}

func TestOpenPMDSignatureAndSpeedup(t *testing.T) {
	cfg := PaperOpenPMD().Scale(8) // 128 ranks
	tuned := PaperOpenPMDTuned().Scale(8)
	rec, res := cfg.Run(1, 1, quietParams())
	trec, tres := tuned.Run(2, 1, quietParams())
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := trec.Validate(); err != nil {
		t.Fatal(err)
	}
	if rec.Counter(darshan.PosixSizeWrite100_1K) == 0 {
		t.Error("independent OpenPMD has no small attribute writes")
	}
	if trec.Counter(darshan.PosixSizeWrite100_1K) != 0 {
		t.Error("collective OpenPMD still has small writes")
	}
	if got := trec.Counter(darshan.LustreStripeSize); got != 4*iosim.MiB {
		t.Errorf("tuned stripe size = %v", got)
	}
	f := tres.PerfMiBps / res.PerfMiBps
	if f < 1.3 || f > 4 {
		t.Errorf("OpenPMD speedup = %.2fx, want in [1.3, 4] (paper: 1.82x)", f)
	}
}

func TestOpenPMDCollectiveWritesSameBytes(t *testing.T) {
	cfg := PaperOpenPMD().Scale(16)
	tuned := PaperOpenPMDTuned().Scale(16)
	count := func(c OpenPMDConfig) int64 {
		var total int64
		for rank := 0; rank < c.NProcs; rank++ {
			c.generate(rank, func(op darshan.Op) {
				if op.Kind == darshan.OpWrite {
					total += op.Size
				}
			}, nil)
		}
		return total
	}
	a, b := count(cfg), count(tuned)
	if a != b {
		t.Errorf("independent writes %d bytes, collective %d", a, b)
	}
	if a != cfg.TotalBytes() {
		t.Errorf("generated %d bytes, TotalBytes says %d", a, cfg.TotalBytes())
	}
}

func TestDASSASignatureAndSpeedup(t *testing.T) {
	cfg := PaperDASSA()
	tuned := PaperDASSATuned()
	rec, res := cfg.Run(1, 1, quietParams())
	trec, tres := tuned.Run(2, 1, quietParams())
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	// 21 minute-files + 1 template per worker.
	if got := rec.Counter(darshan.PosixOpens); got != float64(cfg.NProcs*(cfg.MinuteFiles+1)) {
		t.Errorf("POSIX_OPENS = %v, want %d", got, cfg.NProcs*(cfg.MinuteFiles+1))
	}
	// Merged: one data file + template per worker.
	if got := trec.Counter(darshan.PosixOpens); got != float64(tuned.NProcs*2) {
		t.Errorf("tuned POSIX_OPENS = %v, want %d", got, tuned.NProcs*2)
	}
	f := tres.PerfMiBps / res.PerfMiBps
	if f < 1.4 || f > 6 {
		t.Errorf("DASSA speedup = %.2fx, want in [1.4, 6] (paper: 2.1x)", f)
	}
	if rec.Counter(darshan.PosixWrites) != 0 || trec.Counter(darshan.PosixWrites) != 0 {
		t.Error("DASSA is read-only; write counters must be zero")
	}
}

func TestDASSAScaleClamps(t *testing.T) {
	tiny := PaperDASSA().Scale(1000)
	if tiny.NProcs != 1 {
		t.Errorf("NProcs = %d", tiny.NProcs)
	}
	if tiny.FileBytes != 1*iosim.MiB {
		t.Errorf("FileBytes = %d", tiny.FileBytes)
	}
	rec, _ := tiny.Run(3, 1, quietParams())
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppRecordsAreReadOrWriteOnlyAsExpected(t *testing.T) {
	// E2E and OpenPMD write-only; DASSA read-only. The robustness property
	// of the diagnosis depends on these signatures.
	p := quietParams()
	e, _ := PaperE2E().Scale(16).Run(1, 1, p)
	if e.Counter(darshan.PosixReads) != 0 {
		t.Error("E2E produced reads")
	}
	o, _ := PaperOpenPMD().Scale(64).Run(2, 1, p)
	if o.Counter(darshan.PosixReads) != 0 {
		t.Error("OpenPMD produced reads")
	}
	d, _ := PaperDASSA().Scale(4).Run(3, 1, p)
	if d.Counter(darshan.PosixBytesWritten) != 0 {
		t.Error("DASSA produced writes")
	}
}

// TotalBytes returns the bytes one run reads across all workers.
func (c DASSAConfig) TotalBytes() int64 {
	return int64(c.MinuteFiles)*c.FileBytes + int64(c.NProcs)*c.TemplateBytes
}

// TotalBytes returns the field plus attribute bytes of one run.
func (c OpenPMDConfig) TotalBytes() int64 {
	per := int64(c.BlocksPerProc)*c.BlockBytes + int64(c.AttrWrites)*c.AttrBytes
	return per * int64(c.NProcs) * int64(c.Steps)
}

// TotalBytes returns the bytes one run writes.
func (c E2EConfig) TotalBytes() int64 {
	g := c.Global()
	return int64(g[0]) * int64(g[1]) * int64(g[2]) * c.ElemSize
}
