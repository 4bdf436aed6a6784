package workload

import (
	"fmt"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// Pattern is one of the six low-performing I/O access patterns of
// Section 4.1, with the IOR command line from Table 3, the tuned counterpart
// the paper measures after following AIIO's diagnosis, and the counters the
// paper's figures report as the dominant negative factors.
type Pattern struct {
	ID      int
	Name    string
	Figure  string
	CmdLine string
	// Tuning describes the optimization the paper applied.
	Tuning string
	// Config and TunedConfig are the runnable workloads.
	Config      IORConfig
	TunedConfig IORConfig
	// ExpectedBottlenecks are counters the diagnosis should rank among the
	// most negative contributors for Config (paper Figs. 7–12).
	ExpectedBottlenecks []darshan.CounterID
	// ResolvedBottlenecks are counters that must no longer be the top
	// negative contributor after tuning.
	ResolvedBottlenecks []darshan.CounterID
}

// mustParse parses a Table 3 command line; the table is a compile-time
// constant, so failure is a programming error.
func mustParse(cmdline string) IORConfig {
	cfg, err := ParseIORFlags(cmdline)
	if err != nil {
		panic(fmt.Sprintf("workload: bad built-in IOR config %q: %v", cmdline, err))
	}
	return cfg
}

// Patterns returns the six Section 4.1 patterns. All run with 256 processes
// on the default layout, like the paper.
func Patterns() []Pattern {
	seqWriteSmall := mustParse("ior -w -t 1k -b 1m -Y")
	seqWriteLarge := mustParse("ior -w -t 1m -b 1m -Y")

	seqReadSmall := mustParse("ior -r -t 1k -b 1m")
	seqReadNoSeek := seqReadSmall
	seqReadNoSeek.SeekPerRead = false

	strideWrite := mustParse("ior -w -t 1k -b 1k -s 1024 -Y")
	strideRead := mustParse("ior -r -t 1k -b 1k -s 1024")
	randWrite := mustParse("ior -w -t 1k -b 1m -z -Y")
	randRead := mustParse("ior -a POSIX -r -t 1k -b 1m -z")

	return []Pattern{
		{
			ID: 1, Name: "sequential write, small requests", Figure: "Fig. 7",
			CmdLine: "ior -w -t 1k -b 1m -Y",
			Tuning:  "increase the transfer size from 1 KiB to 1 MiB (-t 1m)",
			Config:  seqWriteSmall, TunedConfig: seqWriteLarge,
			ExpectedBottlenecks: []darshan.CounterID{
				darshan.PosixSizeWrite100_1K, darshan.PosixWrites,
			},
			ResolvedBottlenecks: []darshan.CounterID{darshan.PosixSizeWrite100_1K},
		},
		{
			ID: 2, Name: "sequential read, small requests", Figure: "Fig. 8",
			CmdLine: "ior -r -t 1k -b 1m",
			Tuning:  "seek once for the first read instead of before every read",
			Config:  seqReadSmall, TunedConfig: seqReadNoSeek,
			ExpectedBottlenecks: []darshan.CounterID{darshan.PosixSeeks},
			ResolvedBottlenecks: []darshan.CounterID{darshan.PosixSeeks},
		},
		{
			ID: 3, Name: "noncontiguous write, fixed stride", Figure: "Fig. 9",
			CmdLine: "ior -w -t 1k -b 1k -s 1024 -Y",
			Tuning:  "convert the stride pattern to sequential writing with large requests",
			Config:  strideWrite, TunedConfig: seqWriteLarge,
			ExpectedBottlenecks: []darshan.CounterID{
				darshan.PosixSizeWrite100_1K, darshan.PosixWrites,
				darshan.PosixStride1Count,
			},
			ResolvedBottlenecks: []darshan.CounterID{darshan.PosixStride1Count},
		},
		{
			ID: 4, Name: "noncontiguous read, fixed stride", Figure: "Fig. 10",
			CmdLine: "ior -r -t 1k -b 1k -s 1024",
			Tuning:  "convert the noncontiguous read into a contiguous one",
			Config:  strideRead, TunedConfig: seqReadNoSeek,
			// The paper names POSIX_SEEKS and POSIX_FILE_ALIGNMENT; the
			// small-read size counters carry the same mechanism and share
			// Shapley credit with them.
			ExpectedBottlenecks: []darshan.CounterID{
				darshan.PosixSeeks, darshan.PosixFileAlignment,
				darshan.PosixSizeRead100_1K,
			},
			ResolvedBottlenecks: []darshan.CounterID{darshan.PosixSeeks},
		},
		{
			ID: 5, Name: "write with random offset", Figure: "Fig. 11",
			CmdLine: "ior -w -t 1k -b 1m -z -Y",
			Tuning:  "convert to a contiguous pattern, then enlarge the write size",
			Config:  randWrite, TunedConfig: seqWriteLarge,
			ExpectedBottlenecks: []darshan.CounterID{
				darshan.PosixSizeWrite100_1K, darshan.PosixWrites,
				darshan.PosixFileNotAligned, darshan.PosixStride1Count,
			},
			ResolvedBottlenecks: []darshan.CounterID{darshan.PosixFileNotAligned},
		},
		{
			ID: 6, Name: "read with random offset", Figure: "Fig. 12",
			CmdLine: "ior -a POSIX -r -t 1k -b 1m -z",
			Tuning:  "convert to a contiguous read, then enlarge the read size",
			Config:  randRead, TunedConfig: seqReadNoSeek,
			ExpectedBottlenecks: []darshan.CounterID{
				darshan.PosixSizeRead100_1K, darshan.PosixSeeks,
			},
			// The tuned counterpart is still a small-request read (the
			// paper's chain continues to Fig. 8b for the size); what this
			// step resolves is the random-offset stride signature.
			ResolvedBottlenecks: []darshan.CounterID{
				darshan.PosixStride1Count, darshan.PosixStride3Count,
			},
		},
	}
}

// Scale reduces a pattern's process count and block size by the given
// factors, preserving shape while making tests fast. factor must divide the
// original values sensibly; Scale clamps at 1 process and one transfer.
func (c IORConfig) Scale(procDiv, blockDiv int) IORConfig {
	out := c
	if procDiv > 1 {
		out.NProcs = c.NProcs / procDiv
		if out.NProcs < 1 {
			out.NProcs = 1
		}
	}
	if blockDiv > 1 {
		out.BlockSize = c.BlockSize / int64(blockDiv)
		if out.BlockSize < out.TransferSize {
			out.BlockSize = out.TransferSize
		}
		// Keep block a multiple of transfer size.
		out.BlockSize -= out.BlockSize % out.TransferSize
		if out.BlockSize == 0 {
			out.BlockSize = out.TransferSize
		}
	}
	if out.Segments > 1 && blockDiv > 1 {
		out.Segments = c.Segments / blockDiv
		if out.Segments < 1 {
			out.Segments = 1
		}
	}
	return out
}
