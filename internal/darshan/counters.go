// Package darshan models the Darshan I/O characterization log format used by
// AIIO: the POSIX-level counter schema (Table 4 of the paper), job records,
// an instrumentation Collector that derives every counter from an observed
// operation stream, and a text log format with writer and parser.
//
// The package is a faithful substitute for the Darshan runtime library and
// darshan-parser: counters have the same names and semantics, but they are
// produced by instrumenting simulated workloads (internal/workload) running
// against a simulated parallel file system (internal/iosim) instead of real
// applications running on Cori.
package darshan

import "fmt"

// CounterID identifies one of the POSIX-level I/O counters used by AIIO.
// The set matches Table 4 of the paper: 45 non-time counters that survive
// the paper's pruning (time-related counters are used only to derive the
// performance tag and are dropped from the feature set; nearly-empty
// counters such as POSIX_DUPS and POSIX_RENAME_SOURCES are excluded).
type CounterID int

// The 45 counters, in canonical order. The order defines the layout of
// feature vectors across the whole repository.
const (
	NProcs CounterID = iota
	LustreStripeSize
	LustreStripeWidth
	PosixOpens
	PosixMemAlignment
	PosixFileAlignment
	PosixMemNotAligned
	PosixFileNotAligned
	PosixReads
	PosixWrites
	PosixSeeks
	PosixStats
	PosixBytesRead
	PosixBytesWritten
	PosixConsecReads
	PosixConsecWrites
	PosixSeqReads
	PosixSeqWrites
	PosixRWSwitches
	PosixSizeRead0_100
	PosixSizeRead100_1K
	PosixSizeRead1K_10K
	PosixSizeRead10K_100K
	PosixSizeRead100K_1M
	PosixSizeWrite0_100
	PosixSizeWrite100_1K
	PosixSizeWrite1K_10K
	PosixSizeWrite10K_100K
	PosixSizeWrite100K_1M
	PosixStride1Stride
	PosixStride2Stride
	PosixStride3Stride
	PosixStride4Stride
	PosixStride1Count
	PosixStride2Count
	PosixStride3Count
	PosixStride4Count
	PosixAccess1Access
	PosixAccess2Access
	PosixAccess3Access
	PosixAccess4Access
	PosixAccess1Count
	PosixAccess2Count
	PosixAccess3Count
	PosixAccess4Count

	// NumCounters is the size of a counter vector (45).
	NumCounters
)

// counterNames maps CounterID to the Darshan counter name reported by
// darshan-parser and used throughout the paper's figures.
var counterNames = [NumCounters]string{
	NProcs:                 "nprocs",
	LustreStripeSize:       "LUSTRE_STRIPE_SIZE",
	LustreStripeWidth:      "LUSTRE_STRIPE_WIDTH",
	PosixOpens:             "POSIX_OPENS",
	PosixMemAlignment:      "POSIX_MEM_ALIGNMENT",
	PosixFileAlignment:     "POSIX_FILE_ALIGNMENT",
	PosixMemNotAligned:     "POSIX_MEM_NOT_ALIGNED",
	PosixFileNotAligned:    "POSIX_FILE_NOT_ALIGNED",
	PosixReads:             "POSIX_READS",
	PosixWrites:            "POSIX_WRITES",
	PosixSeeks:             "POSIX_SEEKS",
	PosixStats:             "POSIX_STATS",
	PosixBytesRead:         "POSIX_BYTES_READ",
	PosixBytesWritten:      "POSIX_BYTES_WRITTEN",
	PosixConsecReads:       "POSIX_CONSEC_READS",
	PosixConsecWrites:      "POSIX_CONSEC_WRITES",
	PosixSeqReads:          "POSIX_SEQ_READS",
	PosixSeqWrites:         "POSIX_SEQ_WRITES",
	PosixRWSwitches:        "POSIX_RW_SWITCHES",
	PosixSizeRead0_100:     "POSIX_SIZE_READ_0_100",
	PosixSizeRead100_1K:    "POSIX_SIZE_READ_100_1K",
	PosixSizeRead1K_10K:    "POSIX_SIZE_READ_1K_10K",
	PosixSizeRead10K_100K:  "POSIX_SIZE_READ_10K_100K",
	PosixSizeRead100K_1M:   "POSIX_SIZE_READ_100K_1M",
	PosixSizeWrite0_100:    "POSIX_SIZE_WRITE_0_100",
	PosixSizeWrite100_1K:   "POSIX_SIZE_WRITE_100_1K",
	PosixSizeWrite1K_10K:   "POSIX_SIZE_WRITE_1K_10K",
	PosixSizeWrite10K_100K: "POSIX_SIZE_WRITE_10K_100K",
	PosixSizeWrite100K_1M:  "POSIX_SIZE_WRITE_100K_1M",
	PosixStride1Stride:     "POSIX_STRIDE1_STRIDE",
	PosixStride2Stride:     "POSIX_STRIDE2_STRIDE",
	PosixStride3Stride:     "POSIX_STRIDE3_STRIDE",
	PosixStride4Stride:     "POSIX_STRIDE4_STRIDE",
	PosixStride1Count:      "POSIX_STRIDE1_COUNT",
	PosixStride2Count:      "POSIX_STRIDE2_COUNT",
	PosixStride3Count:      "POSIX_STRIDE3_COUNT",
	PosixStride4Count:      "POSIX_STRIDE4_COUNT",
	PosixAccess1Access:     "POSIX_ACCESS1_ACCESS",
	PosixAccess2Access:     "POSIX_ACCESS2_ACCESS",
	PosixAccess3Access:     "POSIX_ACCESS3_ACCESS",
	PosixAccess4Access:     "POSIX_ACCESS4_ACCESS",
	PosixAccess1Count:      "POSIX_ACCESS1_COUNT",
	PosixAccess2Count:      "POSIX_ACCESS2_COUNT",
	PosixAccess3Count:      "POSIX_ACCESS3_COUNT",
	PosixAccess4Count:      "POSIX_ACCESS4_COUNT",
}

var counterIndex = func() map[string]CounterID {
	m := make(map[string]CounterID, NumCounters)
	for id := CounterID(0); id < NumCounters; id++ {
		m[counterNames[id]] = id
	}
	return m
}()

// String returns the Darshan counter name for id.
func (id CounterID) String() string {
	if id < 0 || id >= NumCounters {
		return fmt.Sprintf("CounterID(%d)", int(id))
	}
	return counterNames[id]
}

// CounterByName returns the CounterID for a Darshan counter name.
func CounterByName(name string) (CounterID, bool) {
	id, ok := counterIndex[name]
	return id, ok
}

// CounterNames returns the 45 counter names in canonical order. The returned
// slice is freshly allocated and may be modified by the caller.
func CounterNames() []string {
	names := make([]string, NumCounters)
	for id := CounterID(0); id < NumCounters; id++ {
		names[id] = counterNames[id]
	}
	return names
}

// IsReadCounter reports whether id only ever becomes non-zero when the job
// performs read operations. Used by robustness tests: a diagnosis for a
// write-only job must not attribute impact to read counters.
func (id CounterID) IsReadCounter() bool {
	switch id {
	case PosixReads, PosixBytesRead, PosixConsecReads, PosixSeqReads,
		PosixSizeRead0_100, PosixSizeRead100_1K, PosixSizeRead1K_10K,
		PosixSizeRead10K_100K, PosixSizeRead100K_1M:
		return true
	}
	return false
}

// IsWriteCounter reports whether id only ever becomes non-zero when the job
// performs write operations.
func (id CounterID) IsWriteCounter() bool {
	switch id {
	case PosixWrites, PosixBytesWritten, PosixConsecWrites, PosixSeqWrites,
		PosixSizeWrite0_100, PosixSizeWrite100_1K, PosixSizeWrite1K_10K,
		PosixSizeWrite10K_100K, PosixSizeWrite100K_1M:
		return true
	}
	return false
}

// sizeBucket follows Darshan's inclusive upper bounds: 0–100, 101–1K,
// 1K+1–10K, 10K+1–100K, 100K+1–1M. AIIO's 45-counter subset stops at the
// 100K_1M bucket, so larger accesses saturate into it.
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
