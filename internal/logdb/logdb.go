// Package logdb generates the historical I/O log database AIIO trains on —
// the stand-in for the 825 GB / 6.6 M-job Cori Darshan archive of Table 1.
// Jobs are sampled from a mixture of workload families (the six IOR access
// patterns with randomized parameters, E2E-, OpenPMD- and DASSA-shaped
// kernels, and metadata-heavy jobs), executed against the simulated file
// system, and recorded as Darshan records whose performance tag follows
// Eq. 1. The mixture is what gives the performance functions the
// counter → performance structure the diagnosis needs: small synced writes,
// seeks, strides, misalignment, opens and stripe settings all vary and all
// matter.
package logdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/hpc-repro/aiio/internal/apps"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/workload"
)

// GenConfig configures database generation.
type GenConfig struct {
	// Jobs is the number of records to generate.
	Jobs int
	// Seed drives every random choice.
	Seed int64
	// Params is the simulated file system; zero value means defaults.
	Params iosim.Params
	// ExcludeFamilies removes workload families from the mixture (by the
	// App names below: "ior-synth", "e2e-write3d", "openpmd-h5bench",
	// "dassa-xcorr", "metadata-synth"). Used by the unseen-application
	// experiments to hold a family out of training.
	ExcludeFamilies []string
}

// DefaultGenConfig returns a database size that trains usable models in
// seconds.
func DefaultGenConfig() GenConfig {
	return GenConfig{Jobs: 3000, Seed: 1, Params: iosim.DefaultParams()}
}

// yearWeights reproduce the Table 1 distribution of jobs across 2019–2022.
var yearWeights = []struct {
	year   int
	weight float64
}{
	{2019, 3013293},
	{2020, 1554827},
	{2021, 2854583},
	{2022, 963035},
}

func pickYear(rng *rand.Rand) int {
	total := 0.0
	for _, yw := range yearWeights {
		total += yw.weight
	}
	r := rng.Float64() * total
	for _, yw := range yearWeights {
		if r < yw.weight {
			return yw.year
		}
		r -= yw.weight
	}
	return yearWeights[len(yearWeights)-1].year
}

// Generate produces the dataset. Jobs are generated in parallel; the result
// is deterministic for a fixed config because each job derives its own RNG
// from (Seed, job index).
func Generate(cfg GenConfig) *darshan.Dataset {
	if cfg.Jobs <= 0 {
		cfg.Jobs = DefaultGenConfig().Jobs
	}
	if cfg.Params.OSTBandwidth == 0 {
		cfg.Params = iosim.DefaultParams()
	}
	records := make([]*darshan.Record, cfg.Jobs)

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				records[i] = generateJob(cfg, i)
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	return &darshan.Dataset{Records: records}
}

// GenerateStream produces the same records as Generate — job i is
// identical under either API for a fixed config — but yields them one at a
// time in index order instead of materializing the dataset. Memory stays
// flat regardless of cfg.Jobs, which is what streaming ingest (aiio ingest,
// joblog replay drills) needs. Return false from yield to stop early.
func GenerateStream(cfg GenConfig, yield func(rec *darshan.Record) bool) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = DefaultGenConfig().Jobs
	}
	if cfg.Params.OSTBandwidth == 0 {
		cfg.Params = iosim.DefaultParams()
	}
	for i := 0; i < cfg.Jobs; i++ {
		if !yield(generateJob(cfg, i)) {
			return
		}
	}
}

// familyNames are the App identities of the mixture families.
var familyNames = []string{
	"ior-synth", "e2e-write3d", "openpmd-h5bench", "dassa-xcorr", "metadata-synth",
}

// generateJob samples one job from the mixture and simulates it.
func generateJob(cfg GenConfig, i int) *darshan.Record {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
	jobSeed := rng.Int63()

	excluded := func(name string) bool {
		for _, e := range cfg.ExcludeFamilies {
			if e == name {
				return true
			}
		}
		return false
	}

	var rec *darshan.Record
	for {
		switch f := rng.Float64(); {
		case f < 0.60:
			rec = iorJob(rng, jobSeed, cfg.Params)
		case f < 0.72:
			rec = e2eJob(rng, jobSeed, cfg.Params)
		case f < 0.84:
			rec = openpmdJob(rng, jobSeed, cfg.Params)
		case f < 0.94:
			rec = dassaJob(rng, jobSeed, cfg.Params)
		default:
			rec = metadataJob(rng, jobSeed, cfg.Params)
		}
		if !excluded(rec.App) {
			break
		}
	}
	rec.JobID = int64(i) + 1
	rec.Year = pickYear(rng)
	return rec
}

// GenerateFamily produces jobs from a single workload family — the "unseen
// application" source for the generalization experiments.
func GenerateFamily(family string, jobs int, seed int64, params iosim.Params) (*darshan.Dataset, error) {
	if params.OSTBandwidth == 0 {
		params = iosim.DefaultParams()
	}
	gen := map[string]func(*rand.Rand, int64, iosim.Params) *darshan.Record{
		"ior-synth":       iorJob,
		"e2e-write3d":     e2eJob,
		"openpmd-h5bench": openpmdJob,
		"dassa-xcorr":     dassaJob,
		"metadata-synth":  metadataJob,
	}[family]
	if gen == nil {
		return nil, fmt.Errorf("logdb: unknown family %q (have %v)", family, familyNames)
	}
	ds := &darshan.Dataset{}
	for i := 0; i < jobs; i++ {
		rng := rand.New(rand.NewSource(seed*999_983 + int64(i)))
		rec := gen(rng, rng.Int63(), params)
		rec.JobID = int64(i) + 1
		rec.Year = pickYear(rng)
		ds.Append(rec)
	}
	return ds, nil
}

func choice[T any](rng *rand.Rand, items []T) T {
	return items[rng.Intn(len(items))]
}

func randFS(rng *rand.Rand) iosim.FSConfig {
	return iosim.FSConfig{
		StripeSize:  choice(rng, []int64{64 * iosim.KiB, 1 * iosim.MiB, 4 * iosim.MiB, 16 * iosim.MiB}),
		StripeWidth: choice(rng, []int{1, 1, 2, 4, 8}),
	}
}

// iorJob samples a randomized IOR-style access pattern.
func iorJob(rng *rand.Rand, seed int64, params iosim.Params) *darshan.Record {
	cfg := workload.DefaultIOR()
	cfg.FS = randFS(rng)
	cfg.NProcs = choice(rng, []int{1, 2, 4, 8, 16, 32})
	cfg.TransferSize = choice(rng, []int64{256, 1 * iosim.KiB, 4 * iosim.KiB,
		64 * iosim.KiB, 256 * iosim.KiB, 1 * iosim.MiB})
	transfers := int64(choice(rng, []int{16, 64, 256, 1024}))
	cfg.BlockSize = cfg.TransferSize * transfers
	if rng.Float64() < 0.3 {
		// Strided: one transfer per block, many segments.
		cfg.BlockSize = cfg.TransferSize
		cfg.Segments = int(transfers)
	}
	switch rng.Intn(3) {
	case 0:
		cfg.Write = true
	case 1:
		cfg.Read = true
	default:
		cfg.Write, cfg.Read = true, true
	}
	cfg.RandomOffset = rng.Float64() < 0.25
	// Small-transfer writers are the synchronous / non-mergeable ones on
	// real systems. fsync is not part of the paper's 45-counter set, so a
	// job's sync behaviour is invisible to the models; tying it to the
	// transfer size reproduces the Cori-data correlation ("small writes are
	// slow") that the paper's diagnosis relies on.
	cfg.FsyncPerWrite = cfg.Write && cfg.TransferSize < 64*iosim.KiB
	cfg.FilePerProc = rng.Float64() < 0.2
	cfg.SeekPerRead = rng.Float64() < 0.5
	cfg.MemUnaligned = rng.Float64() < 0.2
	rec, _ := cfg.Run("ior-synth", 0, seed, params)
	return rec
}

// e2eJob samples a blocked 3-D writer, sometimes tuned (contiguous).
func e2eJob(rng *rand.Rand, seed int64, params iosim.Params) *darshan.Record {
	cfg := apps.E2EConfig{
		NP:       [3]int{choice(rng, []int{8, 16, 32}), choice(rng, []int{8, 16, 32}), choice(rng, []int{8, 16})},
		ND:       [3]int{choice(rng, []int{2, 4, 8}), choice(rng, []int{2, 4, 8}), choice(rng, []int{2, 4})},
		NProcs:   8,
		ProcGrid: [3]int{2, 2, 2},
		ElemSize: 8,
		FS:       randFS(rng),
	}
	cfg.Contiguous = rng.Float64() < 0.4
	rec, _ := cfg.Run(0, seed, params)
	return rec
}

// openpmdJob samples a particle/mesh writer, independent or collective.
func openpmdJob(rng *rand.Rand, seed int64, params iosim.Params) *darshan.Record {
	cfg := apps.OpenPMDConfig{
		NProcs:          choice(rng, []int{8, 16, 32, 64}),
		Steps:           choice(rng, []int{1, 2}),
		BlocksPerProc:   choice(rng, []int{2, 4, 8}),
		BlockBytes:      choice(rng, []int64{128 * iosim.KiB, 512 * iosim.KiB, 1 * iosim.MiB}),
		AttrWrites:      choice(rng, []int{16, 64, 128, 256}),
		AttrBytes:       choice(rng, []int64{256, 512, 1024}),
		AggregatorRatio: 8,
		FS:              randFS(rng),
	}
	cfg.Collective = rng.Float64() < 0.4
	rec, _ := cfg.Run(0, seed, params)
	return rec
}

// dassaJob samples a many-small-files analysis reader, sometimes merged.
func dassaJob(rng *rand.Rand, seed int64, params iosim.Params) *darshan.Record {
	cfg := apps.DASSAConfig{
		NProcs:        choice(rng, []int{2, 4, 8, 16}),
		MinuteFiles:   choice(rng, []int{4, 8, 21, 42, 64}),
		FileBytes:     choice(rng, []int64{2 * iosim.MiB, 8 * iosim.MiB, 16 * iosim.MiB}),
		TemplateBytes: 1 * iosim.MiB,
		ChannelChunks: choice(rng, []int{8, 16, 32}),
		FS:            randFS(rng),
	}
	cfg.Merged = rng.Float64() < 0.35
	rec, _ := cfg.Run(0, seed, params)
	return rec
}

// metadataJob is an open/stat-heavy job with tiny data movement, covering
// the metadata-bound corner of the counter space.
func metadataJob(rng *rand.Rand, seed int64, params iosim.Params) *darshan.Record {
	nprocs := choice(rng, []int{1, 2, 4, 8})
	files := choice(rng, []int{32, 128, 512})
	readSize := choice(rng, []int64{64, 512, 4096})
	// Stats per file vary independently of opens so the models can tell
	// the two metadata costs apart.
	statsPerFile := choice(rng, []int{0, 0, 1, 4, 16})
	job := iosim.Job{
		Name: "metadata-synth", NProcs: nprocs, FS: randFS(rng), Seed: seed,
		Gen: func(rank int, emit func(darshan.Op)) {
			for f := 0; f < files; f++ {
				file := int32(f)
				for s := 0; s < statsPerFile; s++ {
					emit(darshan.Op{Kind: darshan.OpStat, File: file})
				}
				emit(darshan.Op{Kind: darshan.OpOpen, File: file})
				emit(darshan.Op{Kind: darshan.OpRead, File: file, Offset: 0, Size: readSize})
				emit(darshan.Op{Kind: darshan.OpClose, File: file})
			}
		},
	}
	rec, _ := iosim.Run(job, params)
	return rec
}
