package apps

import (
	"sync"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/mpiio"
)

// OpenPMDConfig models the h5bench OpenPMD I/O kernel (Section 4.2.2):
// mesh-based simulation output where every rank contributes blocks of field
// data plus many small attribute/metadata writes. In independent mode
// (OPENPMD_HDF5_INDEPENDENT, the paper's untuned run) each rank issues its
// own writes — the attribute writes land in the 100–1K size bucket the
// paper's diagnosis flags — against a 1 MiB stripe. The tuned run enables
// collective I/O (aggregators merge the small writes into large transfers)
// and raises the stripe size to 4 MiB.
type OpenPMDConfig struct {
	// NProcs is the MPI task count (the paper uses 1024).
	NProcs int
	// Steps is the number of output steps.
	Steps int
	// BlocksPerProc is how many mesh blocks each rank owns per step.
	BlocksPerProc int
	// BlockBytes is the size of one mesh block.
	BlockBytes int64
	// AttrWrites is the number of small attribute/metadata writes each rank
	// issues per step in independent mode.
	AttrWrites int
	// AttrBytes is the size of one attribute write (falls in 100–1K).
	AttrBytes int64
	// Collective enables two-phase collective I/O: every AggregatorRatio-th
	// rank writes merged 4 MiB transfers and rank 0 writes the merged
	// metadata.
	Collective bool
	// SyncPerStep issues MPI_File_sync after each output step (checkpoint
	// durability). The resulting fsyncs are invisible in the paper's 45
	// POSIX counters but visible as MPIIO_SYNCS — the information gap the
	// MPI-IO extension experiment measures.
	SyncPerStep bool
	// AggregatorRatio is the ranks-per-aggregator divisor in collective mode.
	AggregatorRatio int
	FS              iosim.FSConfig
}

// PaperOpenPMD returns the untuned configuration shaped like the paper's
// run (1024 ranks, dim=3, balanced, 1 step), scaled so the mesh block count
// stays tractable in simulation while preserving the access pattern.
func PaperOpenPMD() OpenPMDConfig {
	return OpenPMDConfig{
		NProcs:          1024,
		Steps:           1,
		BlocksPerProc:   4,
		BlockBytes:      512 * iosim.KiB,
		AttrWrites:      128,
		AttrBytes:       512,
		AggregatorRatio: 16,
		FS:              iosim.FSConfig{StripeSize: 1 * iosim.MiB, StripeWidth: 8},
	}
}

// PaperOpenPMDTuned returns the tuned run: collective I/O and 4 MiB stripes.
func PaperOpenPMDTuned() OpenPMDConfig {
	cfg := PaperOpenPMD()
	cfg.Collective = true
	cfg.FS.StripeSize = 4 * iosim.MiB
	return cfg
}

// Scale divides the process count by div, keeping per-rank work constant.
func (c OpenPMDConfig) Scale(div int) OpenPMDConfig {
	out := c
	out.NProcs = c.NProcs / div
	if out.NProcs < 1 {
		out.NProcs = 1
	}
	if out.AggregatorRatio > out.NProcs {
		out.AggregatorRatio = out.NProcs
	}
	return out
}

// Job converts the configuration into a simulator job.
func (c OpenPMDConfig) Job(jobID, seed int64) iosim.Job {
	return iosim.Job{
		Name:   "openpmd-h5bench",
		JobID:  jobID,
		NProcs: c.NProcs,
		FS:     c.FS,
		Seed:   seed,
		Gen: func(rank int, emit func(darshan.Op)) {
			c.generate(rank, emit, nil)
		},
	}
}

// generate drives one rank through the MPI-IO middleware layer
// (internal/mpiio): independent mode issues MPI_File_write_at per block and
// per attribute; collective mode issues write_at_all calls that two-phase
// I/O lowers to merged aggregator writes. mpiioOut, when non-nil, receives
// the rank's MPIIO counters.
func (c OpenPMDConfig) generate(rank int, emit func(darshan.Op), mpiioOut func(*mpiio.Counters)) {
	ratio := c.AggregatorRatio
	if ratio < 1 {
		ratio = 1
	}
	f := mpiio.Open(rank, c.NProcs, 0, ratio, c.Collective, emit)
	defer func() {
		f.Close()
		if mpiioOut != nil {
			mpiioOut(f.Counters())
		}
	}()

	fieldPerStep := int64(c.NProcs) * int64(c.BlocksPerProc) * c.BlockBytes
	attrPerStep := int64(c.NProcs) * int64(c.AttrWrites) * c.AttrBytes

	for step := 0; step < c.Steps; step++ {
		stepBase := int64(step) * (fieldPerStep + attrPerStep)
		attrBase := stepBase + fieldPerStep

		if c.Collective {
			// Field data: contiguous-by-rank write_at_all; attributes:
			// gather-to-root write_at_all (cb_nodes = 1).
			perRank := int64(c.BlocksPerProc) * c.BlockBytes
			f.CollectiveWriteContig(stepBase, perRank, 4*iosim.MiB)
			f.CollectiveWriteGathered(attrBase, int64(c.AttrWrites)*c.AttrBytes, 4*iosim.MiB)
			continue
		}

		// Independent mode: each rank writes its own blocks; blocks of
		// different ranks interleave round-robin in the file, so no rank's
		// pieces are mergeable with its neighbours'.
		for b := 0; b < c.BlocksPerProc; b++ {
			off := stepBase + (int64(b)*int64(c.NProcs)+int64(rank))*c.BlockBytes
			f.WriteAt(off, c.BlockBytes)
		}
		// Attribute/metadata writes: small, interleaved, independent.
		for a := 0; a < c.AttrWrites; a++ {
			off := attrBase + (int64(a)*int64(c.NProcs)+int64(rank))*c.AttrBytes
			f.WriteAt(off, c.AttrBytes)
		}
		if c.SyncPerStep {
			f.Sync()
		}
	}
}

// Run executes the configuration against the simulator.
func (c OpenPMDConfig) Run(jobID, seed int64, params iosim.Params) (*darshan.Record, iosim.Result) {
	rec, res, _ := c.RunWithMPIIO(jobID, seed, params)
	return rec, res
}

// RunWithMPIIO also returns the merged MPI-IO layer counters — the
// upper-layer information the paper's Section 1 limitation discusses.
func (c OpenPMDConfig) RunWithMPIIO(jobID, seed int64, params iosim.Params) (*darshan.Record, iosim.Result, *mpiio.Counters) {
	var mu sync.Mutex
	var merged mpiio.Counters
	job := c.Job(jobID, seed)
	job.Gen = func(rank int, emit func(darshan.Op)) {
		c.generate(rank, emit, func(cnt *mpiio.Counters) {
			mu.Lock()
			merged.Merge(cnt)
			mu.Unlock()
		})
	}
	rec, res := iosim.Run(job, params)
	return rec, res, &merged
}
