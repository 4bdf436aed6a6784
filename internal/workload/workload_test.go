package workload

import (
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"1k":   1024,
		"4K":   4096,
		"1m":   1 << 20,
		"2g":   2 << 30,
		"4096": 4096,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1k", "0", "1.5m"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestParseIORFlagsTable3(t *testing.T) {
	// Every Table 3 command line must parse.
	cases := []struct {
		cmdline string
		check   func(IORConfig) bool
	}{
		{"ior -w -t 1k -b 1m -Y", func(c IORConfig) bool {
			return c.Write && !c.Read && c.TransferSize == 1024 && c.BlockSize == 1<<20 && c.FsyncPerWrite
		}},
		{"ior -w -k 1m -b 1m -Y", func(c IORConfig) bool { // paper's typo for -t 1m
			return c.Write && c.TransferSize == 1<<20
		}},
		{"ior -r -t 1k -b 1m", func(c IORConfig) bool {
			return c.Read && !c.Write && !c.FsyncPerWrite
		}},
		{"ior -w -t 1k -b 1k -s 1024 -Y", func(c IORConfig) bool {
			return c.Segments == 1024 && c.BlockSize == 1024
		}},
		{"ior -w -t 1k -b 1m -z -Y", func(c IORConfig) bool {
			return c.RandomOffset && c.FsyncPerWrite
		}},
		{"ior -a POSIX -r -t 1k -b 1m -z", func(c IORConfig) bool {
			return c.Read && c.RandomOffset
		}},
	}
	for _, tc := range cases {
		cfg, err := ParseIORFlags(tc.cmdline)
		if err != nil {
			t.Errorf("ParseIORFlags(%q): %v", tc.cmdline, err)
			continue
		}
		if !tc.check(cfg) {
			t.Errorf("ParseIORFlags(%q) = %+v fails check", tc.cmdline, cfg)
		}
	}
}

func TestParseIORFlagsErrors(t *testing.T) {
	bad := []string{
		"ior",                     // neither -w nor -r
		"ior -w -t",               // missing argument
		"ior -w -t 3k -b 1m",      // block not multiple of transfer
		"ior -w -t 1k -b 1m --no", // unknown flag
		"ior -w -t 0 -b 1m",       // zero size
		"ior -w -s x -t 1k -b 1k", // bad segment count
	}
	for _, cmd := range bad {
		if _, err := ParseIORFlags(cmd); err == nil {
			t.Errorf("ParseIORFlags(%q) accepted", cmd)
		}
	}
}

func TestOffsetsSegmentedLayout(t *testing.T) {
	cfg := DefaultIOR()
	cfg.Write = true
	cfg.NProcs = 4
	cfg.TransferSize = 1024
	cfg.BlockSize = 2048
	cfg.Segments = 2
	offs := cfg.offsets(1, nil)
	want := []int64{
		1 * 2048, 1*2048 + 1024, // segment 0, rank 1
		(2*4 - 3) * 2048, (2*4-3)*2048 + 1024, // segment 1: (1*4+1)*2048
	}
	want[2] = (int64(1)*4 + 1) * 2048
	want[3] = want[2] + 1024
	if len(offs) != len(want) {
		t.Fatalf("offsets len = %d, want %d", len(offs), len(want))
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Errorf("offsets[%d] = %d, want %d", i, offs[i], want[i])
		}
	}
}

func TestGenerateCounterSignatures(t *testing.T) {
	params := iosim.DefaultParams()
	params.NoiseSigma = 0

	t.Run("seq write small", func(t *testing.T) {
		cfg := mustParse("ior -w -t 1k -b 1m -Y")
		cfg.NProcs = 4
		rec, _ := cfg.Run("ior", 1, 1, params)
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter(darshan.PosixWrites); got != 4*1024 {
			t.Errorf("POSIX_WRITES = %v, want 4096", got)
		}
		if got := rec.Counter(darshan.PosixSizeWrite100_1K); got != 4*1024 {
			t.Errorf("POSIX_SIZE_WRITE_100_1K = %v", got)
		}
		// Sequential writes: one initial seek per proc only.
		if got := rec.Counter(darshan.PosixSeeks); got != 4 {
			t.Errorf("POSIX_SEEKS = %v, want 4", got)
		}
		if got := rec.Counter(darshan.PosixConsecWrites); got != 4*1023 {
			t.Errorf("POSIX_CONSEC_WRITES = %v", got)
		}
		if rec.Counter(darshan.PosixReads) != 0 {
			t.Error("write-only workload produced reads")
		}
	})

	t.Run("seq read seek-per-read", func(t *testing.T) {
		cfg := mustParse("ior -r -t 1k -b 1m")
		cfg.NProcs = 4
		rec, _ := cfg.Run("ior", 1, 1, params)
		if got := rec.Counter(darshan.PosixSeeks); got != 4*1024 {
			t.Errorf("POSIX_SEEKS = %v, want one per read", got)
		}
		cfg.SeekPerRead = false
		rec, _ = cfg.Run("ior", 1, 1, params)
		if got := rec.Counter(darshan.PosixSeeks); got != 4 {
			t.Errorf("POSIX_SEEKS without seek-per-read = %v, want 4", got)
		}
	})

	t.Run("strided write", func(t *testing.T) {
		cfg := mustParse("ior -w -t 1k -b 1k -s 64 -Y")
		cfg.NProcs = 4
		rec, _ := cfg.Run("ior", 1, 1, params)
		// Stride between segments: nprocs*blockSize gap minus transfer.
		wantStride := float64(4*1024 - 1024)
		if got := rec.Counter(darshan.PosixStride1Stride); got != wantStride {
			t.Errorf("POSIX_STRIDE1_STRIDE = %v, want %v", got, wantStride)
		}
		if got := rec.Counter(darshan.PosixStride1Count); got != 4*63 {
			t.Errorf("POSIX_STRIDE1_COUNT = %v, want 252", got)
		}
		if got := rec.Counter(darshan.PosixConsecWrites); got != 0 {
			t.Errorf("POSIX_CONSEC_WRITES = %v, want 0", got)
		}
	})

	t.Run("random write alignment", func(t *testing.T) {
		cfg := mustParse("ior -w -t 1k -b 1m -z -Y")
		cfg.NProcs = 4
		rec, _ := cfg.Run("ior", 1, 1, params)
		if got := rec.Counter(darshan.PosixFileNotAligned); got == 0 {
			t.Error("random 1k writes produced no unaligned accesses")
		}
		if got := rec.Counter(darshan.PosixSeeks); got < 4*512 {
			t.Errorf("POSIX_SEEKS = %v, random writes should mostly seek", got)
		}
	})

	t.Run("file per proc", func(t *testing.T) {
		cfg := mustParse("ior -w -t 1k -b 4k -F")
		cfg.NProcs = 3
		rec, _ := cfg.Run("ior", 1, 1, params)
		if got := rec.Counter(darshan.PosixOpens); got != 3 {
			t.Errorf("POSIX_OPENS = %v", got)
		}
		// Every proc starts its own file at offset 0: fully consecutive.
		if got := rec.Counter(darshan.PosixConsecWrites); got != 3*3 {
			t.Errorf("POSIX_CONSEC_WRITES = %v, want 9", got)
		}
	})
}

func TestPatternsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("pattern simulation in -short mode")
	}
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	for _, pat := range Patterns() {
		pat := pat
		t.Run(pat.Name, func(t *testing.T) {
			cfg := pat.Config.Scale(8, 1) // 32 procs
			tuned := pat.TunedConfig.Scale(8, 1)
			rec, res := cfg.Run("ior", int64(pat.ID), 42, params)
			trec, tres := tuned.Run("ior-tuned", int64(pat.ID+100), 43, params)
			if err := rec.Validate(); err != nil {
				t.Fatalf("untuned record: %v", err)
			}
			if err := trec.Validate(); err != nil {
				t.Fatalf("tuned record: %v", err)
			}
			if tres.PerfMiBps <= res.PerfMiBps {
				t.Errorf("tuning did not help: untuned %.2f MiB/s, tuned %.2f MiB/s",
					res.PerfMiBps, tres.PerfMiBps)
			}
			for _, id := range pat.ExpectedBottlenecks {
				if rec.Counter(id) == 0 {
					t.Errorf("expected bottleneck counter %s is zero in untuned run", id)
				}
			}
		})
	}
}

func TestPattern1SpeedupFactor(t *testing.T) {
	// The paper reports 104x for pattern 1; require at least 20x in the
	// simulator at reduced scale.
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	pats := Patterns()
	cfg := pats[0].Config.Scale(8, 1)
	tuned := pats[0].TunedConfig.Scale(8, 1)
	_, res := cfg.Run("ior", 1, 7, params)
	_, tres := tuned.Run("ior", 2, 7, params)
	if f := tres.PerfMiBps / res.PerfMiBps; f < 20 {
		t.Errorf("pattern 1 speedup = %.1fx, want >= 20x", f)
	}
}

func TestScaleAndTotalBytes(t *testing.T) {
	cfg := mustParse("ior -w -t 1k -b 1m -Y")
	if got := cfg.TotalBytes(); got != int64(cfg.NProcs)*1<<20 {
		t.Errorf("TotalBytes = %d", got)
	}
	s := cfg.Scale(4, 4)
	if s.NProcs != cfg.NProcs/4 {
		t.Errorf("scaled NProcs = %d", s.NProcs)
	}
	if s.BlockSize != cfg.BlockSize/4 {
		t.Errorf("scaled BlockSize = %d", s.BlockSize)
	}
	if s.BlockSize%s.TransferSize != 0 {
		t.Error("scaled block not multiple of transfer")
	}
	tiny := cfg.Scale(10000, 10000)
	if tiny.NProcs != 1 || tiny.BlockSize < tiny.TransferSize {
		t.Errorf("clamping failed: %+v", tiny)
	}
	rw := cfg
	rw.Read = true
	if rw.TotalBytes() != 2*cfg.TotalBytes() {
		t.Error("read+write TotalBytes should double")
	}
}

func TestPatternsAreComplete(t *testing.T) {
	pats := Patterns()
	if len(pats) != 6 {
		t.Fatalf("Patterns() returned %d patterns, want 6", len(pats))
	}
	for i, p := range pats {
		if p.ID != i+1 {
			t.Errorf("pattern %d has ID %d", i, p.ID)
		}
		if p.CmdLine == "" || p.Figure == "" || p.Tuning == "" {
			t.Errorf("pattern %d metadata incomplete: %+v", i, p)
		}
		if len(p.ExpectedBottlenecks) == 0 {
			t.Errorf("pattern %d has no expected bottlenecks", i)
		}
		if _, err := ParseIORFlags(p.CmdLine); err != nil {
			t.Errorf("pattern %d cmdline %q does not parse: %v", i, p.CmdLine, err)
		}
	}
}

// TotalBytes returns the bytes one run of the config transfers (write and
// read phases counted separately).
func (c IORConfig) TotalBytes() int64 {
	per := c.BlockSize * int64(c.Segments) * int64(c.NProcs)
	n := int64(0)
	if c.Write {
		n += per
	}
	if c.Read {
		n += per
	}
	return n
}
