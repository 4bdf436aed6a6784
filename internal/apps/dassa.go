package apps

import (
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
)

// DASSAConfig models the DASSA earthquake-search kernel with the
// cross-correlation (xcorr) method (Section 4.2.3). The input is a set of
// 1-minute DAS files plus template files of identified seismic waves. In the
// untuned run every worker opens each 1-minute file and reads its channel
// slice with strided accesses — so POSIX_OPENS grows with the file count and
// the strided slices defeat read-ahead. The tuned run merges the 1-minute
// files into one file, which each worker reads sequentially (the paper's
// 2.1x improvement).
type DASSAConfig struct {
	// NProcs is the worker count (the paper runs one node with threads).
	NProcs int
	// MinuteFiles is the number of 1-minute DAS files (the paper uses 21).
	MinuteFiles int
	// FileBytes is the size of one 1-minute file.
	FileBytes int64
	// TemplateBytes is the size of the template file (the paper uses one).
	TemplateBytes int64
	// ChannelChunks is the number of strided slice reads each worker issues
	// per 1-minute file in the untuned layout.
	ChannelChunks int
	// Merged marks the tuned layout: the 1-minute files are concatenated
	// into a single file read sequentially.
	Merged bool
	FS     iosim.FSConfig
}

// PaperDASSA returns the untuned configuration: 21 one-minute files and one
// template, matching the paper's single-node run.
func PaperDASSA() DASSAConfig {
	return DASSAConfig{
		NProcs:        16,
		MinuteFiles:   21,
		FileBytes:     16 * iosim.MiB,
		TemplateBytes: 1 * iosim.MiB,
		ChannelChunks: 32,
		FS:            iosim.DefaultFS(),
	}
}

// PaperDASSATuned returns the tuned configuration: the 21 files merged into
// one.
func PaperDASSATuned() DASSAConfig {
	cfg := PaperDASSA()
	cfg.Merged = true
	return cfg
}

// Scale divides the worker count and file size by div.
func (c DASSAConfig) Scale(div int) DASSAConfig {
	out := c
	out.NProcs = c.NProcs / div
	if out.NProcs < 1 {
		out.NProcs = 1
	}
	out.FileBytes = c.FileBytes / int64(div)
	if out.FileBytes < 1*iosim.MiB {
		out.FileBytes = 1 * iosim.MiB
	}
	return out
}

// Job converts the configuration into a simulator job.
func (c DASSAConfig) Job(jobID, seed int64) iosim.Job {
	return iosim.Job{
		Name:   "dassa-xcorr",
		JobID:  jobID,
		NProcs: c.NProcs,
		FS:     c.FS,
		Seed:   seed,
		Gen:    c.generate,
	}
}

func (c DASSAConfig) generate(rank int, emit func(darshan.Op)) {
	// File IDs: 0..MinuteFiles-1 are the 1-minute files (or the merged file
	// when Merged), MinuteFiles is the template.
	templateFile := int32(c.MinuteFiles)

	if c.Merged {
		// Tuned: one merged file; each worker reads its contiguous
		// partition of the concatenated data sequentially.
		total := int64(c.MinuteFiles) * c.FileBytes
		part := total / int64(c.NProcs)
		start := int64(rank) * part
		if rank == c.NProcs-1 {
			part = total - start
		}
		emit(darshan.Op{Kind: darshan.OpOpen, File: 0})
		emit(darshan.Op{Kind: darshan.OpStat, File: 0})
		const chunk = 256 * iosim.KiB
		emit(darshan.Op{Kind: darshan.OpSeek, File: 0, Offset: start})
		for off := int64(0); off < part; off += chunk {
			n := int64(chunk)
			if off+n > part {
				n = part - off
			}
			emit(darshan.Op{Kind: darshan.OpRead, File: 0, Offset: start + off, Size: n})
		}
		emit(darshan.Op{Kind: darshan.OpClose, File: 0})
	} else {
		// Untuned: every worker opens every 1-minute file and reads its
		// channel slice as ChannelChunks strided pieces (channel-major data,
		// worker-partitioned channels).
		slice := c.FileBytes / int64(c.NProcs)
		chunk := slice / int64(c.ChannelChunks)
		if chunk < 1 {
			chunk = 1
		}
		stride := c.FileBytes / int64(c.ChannelChunks)
		for f := 0; f < c.MinuteFiles; f++ {
			file := int32(f)
			emit(darshan.Op{Kind: darshan.OpOpen, File: file})
			emit(darshan.Op{Kind: darshan.OpStat, File: file})
			for i := 0; i < c.ChannelChunks; i++ {
				off := int64(i)*stride + int64(rank)*chunk
				emit(darshan.Op{Kind: darshan.OpSeek, File: file, Offset: off})
				emit(darshan.Op{Kind: darshan.OpRead, File: file, Offset: off, Size: chunk})
			}
			emit(darshan.Op{Kind: darshan.OpClose, File: file})
		}
	}

	// Template file: read fully by every worker (it is small).
	emit(darshan.Op{Kind: darshan.OpOpen, File: templateFile})
	emit(darshan.Op{Kind: darshan.OpSeek, File: templateFile, Offset: 0})
	emit(darshan.Op{Kind: darshan.OpRead, File: templateFile, Offset: 0, Size: c.TemplateBytes})
	emit(darshan.Op{Kind: darshan.OpClose, File: templateFile})
}

// Run executes the configuration against the simulator.
func (c DASSAConfig) Run(jobID, seed int64, params iosim.Params) (*darshan.Record, iosim.Result) {
	return iosim.Run(c.Job(jobID, seed), params)
}
