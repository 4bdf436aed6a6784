// Package apps models the I/O kernels of the three real applications in the
// paper's Section 4.2 — E2E (Chimera/Pixie3D checkpoint writer), OpenPMD
// (h5bench particle/mesh kernel), and DASSA (distributed acoustic sensing
// analysis) — as operation-stream generators for the simulated file system.
// Each application has an untuned configuration matching the paper's initial
// run and a tuned configuration matching the optimization the paper applied
// after reading AIIO's diagnosis.
package apps

import (
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/mpiio"
)

// E2EConfig models write_3d_nc4.c of the E2E benchmark (Section 4.2.1): a
// 3-D array of (npx·ndx, npy·ndy, npz·ndz) doubles written by NProcs
// processes, each owning a cuboid sub-block. With a row-major file layout
// the sub-block decomposes into contiguous runs of npz·ndz/pz elements, so
// when the written region does not match the file layout the collective
// writer degenerates into huge numbers of small non-contiguous writes that
// cannot be merged (the paper's 3.28 MiB/s case). The netCDF/HDF5 collective
// path handles non-contiguous pieces with lock + read-modify-write rounds,
// modeled as synchronous flushes.
type E2EConfig struct {
	// NP is the points per block (npx, npy, npz).
	NP [3]int
	// ND is the number of blocks (ndx, ndy, ndz).
	ND [3]int
	// NProcs is the MPI task count; must have an integer cube-ish
	// decomposition via procGrid.
	NProcs int
	// ProcGrid decomposes the global array across processes (px, py, pz);
	// px·py·pz must equal NProcs.
	ProcGrid [3]int
	// ElemSize is the element size in bytes (8 for double).
	ElemSize int64
	// Contiguous marks the tuned layout of Fig. 13b: the data size matches
	// the writes of all processes so each rank's region is physically
	// contiguous and collective I/O merges everything into large transfers.
	Contiguous bool
	FS         iosim.FSConfig
}

// PaperE2E returns the untuned configuration the paper runs: np=(32,32,16),
// nd=(32,32,32) — a (1024, 1024, 512) array — with 64 processes.
func PaperE2E() E2EConfig {
	return E2EConfig{
		NP:       [3]int{32, 32, 16},
		ND:       [3]int{32, 32, 32},
		NProcs:   64,
		ProcGrid: [3]int{4, 4, 4},
		ElemSize: 8,
		FS:       iosim.DefaultFS(),
	}
}

// PaperE2ETuned returns the tuned configuration of Fig. 13b: data size
// (1024, 64, 32), matching the exact size of the writes of all processes so
// collective I/O merges the small writes into large ones.
func PaperE2ETuned() E2EConfig {
	cfg := PaperE2E()
	cfg.ND = [3]int{32, 2, 2} // (1024, 64, 32) global
	cfg.Contiguous = true
	return cfg
}

// Global returns the global array dimensions.
func (c E2EConfig) Global() [3]int {
	return [3]int{c.NP[0] * c.ND[0], c.NP[1] * c.ND[1], c.NP[2] * c.ND[2]}
}

// Scale divides every block-count dimension by div (min 1) to produce a
// smaller run with the same access shape.
func (c E2EConfig) Scale(div int) E2EConfig {
	out := c
	for i := range out.ND {
		out.ND[i] = c.ND[i] / div
		if out.ND[i] < 1 {
			out.ND[i] = 1
		}
	}
	return out
}

// Job converts the configuration into a simulator job.
func (c E2EConfig) Job(jobID, seed int64) iosim.Job {
	return iosim.Job{
		Name:   "e2e-write3d",
		JobID:  jobID,
		NProcs: c.NProcs,
		FS:     c.FS,
		Seed:   seed,
		Gen:    c.generate,
	}
}

// generate drives one rank through the MPI-IO layer, the way the netCDF
// writer in write_3d_nc4.c sits on MPI-IO collectives.
func (c E2EConfig) generate(rank int, emit func(darshan.Op)) {
	g := c.Global()
	px, py, pz := c.ProcGrid[0], c.ProcGrid[1], c.ProcGrid[2]
	// Block dims owned by this rank.
	bx, by, bz := g[0]/px, g[1]/py, g[2]/pz
	// Rank position in the process grid (z fastest).
	rz := rank % pz
	ry := (rank / pz) % py
	rx := rank / (pz * py)
	x0, y0, z0 := rx*bx, ry*by, rz*bz

	f := mpiio.Open(rank, c.NProcs, 0, 1, true, emit)
	defer f.Close()

	rowBytes := int64(g[2]) * c.ElemSize // one full z-row in the file

	if c.Contiguous {
		// Tuned layout (Fig. 13b): the data size matches the writes, so
		// every rank's region is contiguous and write_at_all lowers to
		// large sequential transfers (aggregation ratio 1: each rank owns
		// its own file domain).
		regionBytes := int64(bx) * int64(by) * int64(bz) * c.ElemSize
		f.CollectiveWriteContig(0, regionBytes, 4*iosim.MiB)
		return
	}

	// Untuned layout: each (x, y) pencil of the rank's cuboid is a separate
	// contiguous run of bz elements, strided by the global z-extent and
	// interleaved with other ranks' pencils — a noncontiguous filetype the
	// collective cannot merge, so ROMIO data-sieves it (lock + RMW per
	// piece).
	runBytes := int64(bz) * c.ElemSize
	pieces := make([]mpiio.Piece, 0, bx*by)
	for x := x0; x < x0+bx; x++ {
		for y := y0; y < y0+by; y++ {
			off := (int64(x)*int64(g[1])+int64(y))*rowBytes + int64(z0)*c.ElemSize
			pieces = append(pieces, mpiio.Piece{Off: off, Size: runBytes})
		}
	}
	f.CollectiveWriteNoncontig(pieces)
}

// Run executes the configuration against the simulator.
func (c E2EConfig) Run(jobID, seed int64, params iosim.Params) (*darshan.Record, iosim.Result) {
	return iosim.Run(c.Job(jobID, seed), params)
}
