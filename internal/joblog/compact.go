package joblog

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/hpc-repro/aiio/internal/durable"
)

// Compaction rewrites the sealed segments without their physical
// duplicates, in one streaming pass that applies the same liveness rule
// as Scan (walkLive):
//
//  1. the active segment is sealed, so the input set is immutable
//  2. the sealed segments are walked in manifest order, one segment in
//     memory at a time; each live frame — the job's lowest-seq copy, its
//     first physical occurrence — is copied byte for byte into fresh
//     segments (rotated at segmentBytes, fsynced, renamed from temp)
//  3. the manifest flips atomically to list exactly the new set, and only
//     then are the old segments deleted
//
// The output keeps the order it was read in, which is sequence order for
// any log whose segments were written in sequence order; a log compacted
// by an older binary, which wrote (hash, seq) order, keeps that order.
// Peak memory is the walk's guard set (one entry per unique job) plus one
// segment — what every Scan already costs.
//
// A crash before a segment rename leaves temp files the next Open sweeps;
// a crash between a segment rename and the manifest flip leaves new
// segments the next Open adopts as unsealed tails (their records are
// byte-identical (hash, seq) copies the walk's guard masks); a crash after
// the flip but before cleanup leaves superseded old segments the next Open
// removes. In every window the set of unique records is preserved exactly.

// CompactStats reports one compaction.
type CompactStats struct {
	SegmentsIn        int   `json:"segments_in"`
	SegmentsOut       int   `json:"segments_out"`
	FramesIn          int   `json:"frames_in"`
	FramesOut         int   `json:"frames_out"`
	DuplicatesDropped int   `json:"duplicates_dropped"`
	BytesIn           int64 `json:"bytes_in"`
	BytesOut          int64 `json:"bytes_out"`
}

// Compact rewrites the store as described above. It holds the store lock
// for the duration: appends block until the compaction commits, and an
// in-flight Scan (the compaction read-guard) blocks Compact from starting,
// so cleanup never deletes a segment a scanner is still reading. Returns
// the stats of the rewrite; a store with nothing sealed is a no-op.
func (s *Store) Compact() (*CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.active != nil || len(s.activeBuf) > 0 {
		if err := s.sealLocked(); err != nil {
			return nil, err
		}
	}
	stats := &CompactStats{SegmentsIn: len(s.man.Sealed)}
	for _, si := range s.man.Sealed {
		stats.BytesIn += si.Bytes
	}
	segRoot := filepath.Join(s.dir, segmentsDir)
	out := &compactWriter{s: s, segRoot: segRoot}
	// s.mu is held throughout, so the index is read directly.
	first := func(h hashKey) uint64 { return s.index[h] }
	err := s.walkLive(s.segmentFilesLocked(), first, func(fr liveFrame) (bool, error) {
		if fr.err != nil {
			return true, s.quarantine(fr.frame[frameHeaderLen:], "compact "+fr.err.Error())
		}
		stats.FramesIn++
		if !fr.live {
			stats.DuplicatesDropped++
			return true, nil
		}
		stats.FramesOut++
		return true, out.write(fr.frame)
	})
	if err != nil {
		return nil, err
	}
	if stats.FramesIn == 0 {
		return stats, nil
	}
	if err := out.seal(); err != nil {
		return nil, err
	}
	stats.SegmentsOut = len(out.sealed)
	for _, si := range out.sealed {
		stats.BytesOut += si.Bytes
	}

	// Flip the manifest to exactly the new set; the old segments become
	// superseded debris the moment this rename lands.
	oldSealed := s.man.Sealed
	s.man.Sealed = out.sealed
	s.man.Compactions++
	s.man.LastCompactionUnix = time.Now().Unix()
	if err := s.commitManifest(StepCompactManifest); err != nil {
		s.man.Sealed = oldSealed
		s.man.Compactions--
		return nil, err
	}
	s.sealedBytes = stats.BytesOut
	s.dupFrames = 0
	s.activeBytes = 0

	// Cleanup, best effort: a failure leaves debris the next Open sweeps.
	for _, si := range oldSealed {
		path := filepath.Join(segRoot, si.File)
		if err := s.hook.At(StepCompactCleanup, path); err != nil {
			return stats, err
		}
		os.Remove(path)
	}
	return stats, nil
}

// compactWriter streams the kept frames into size-rotated, fsynced,
// atomically renamed segments.
type compactWriter struct {
	s       *Store
	segRoot string

	f      *os.File
	w      *bufio.Writer
	sha    hash.Hash
	idx    uint64
	bytes  int64
	frames int
	sealed []segmentInfo
}

func (cw *compactWriter) open() error {
	cw.idx = cw.s.nextSegIdx
	cw.s.nextSegIdx++
	path := filepath.Join(cw.segRoot, fmt.Sprintf("%scmp-%08d", tmpPrefix, cw.idx))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("joblog: create compacted segment: %w", err)
	}
	cw.sha = sha256.New()
	cw.f = f
	cw.w = bufio.NewWriterSize(io.MultiWriter(f, cw.sha), 1<<20)
	cw.bytes = 0
	cw.frames = 0
	return nil
}

func (cw *compactWriter) write(frame []byte) error {
	if cw.f == nil {
		if err := cw.open(); err != nil {
			return err
		}
	}
	if _, err := cw.w.Write(frame); err != nil {
		return fmt.Errorf("joblog: write compacted segment: %w", err)
	}
	cw.bytes += int64(len(frame))
	cw.frames++
	if cw.bytes >= cw.s.opts.segmentBytes {
		return cw.seal()
	}
	return nil
}

// seal finishes the open compacted segment: flush, fsync, rename into place.
func (cw *compactWriter) seal() error {
	if cw.f == nil {
		return nil
	}
	if err := cw.w.Flush(); err != nil {
		cw.f.Close()
		return fmt.Errorf("joblog: flush compacted segment: %w", err)
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return fmt.Errorf("joblog: sync compacted segment: %w", err)
	}
	tmp := cw.f.Name()
	if err := cw.f.Close(); err != nil {
		return err
	}
	final := cw.s.segPath(cw.idx)
	if err := cw.s.hook.At(StepCompactSeal, final); err != nil {
		return err
	}
	if err := durable.Rename(tmp, final); err != nil {
		return fmt.Errorf("joblog: commit compacted segment: %w", err)
	}
	cw.sealed = append(cw.sealed, segmentInfo{
		File:   filepath.Base(final),
		Frames: cw.frames,
		Bytes:  cw.bytes,
		SHA256: hex.EncodeToString(cw.sha.Sum(nil)),
	})
	cw.f = nil
	return nil
}
