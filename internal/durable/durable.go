// Package durable is the one crash-safe commit primitive of the model
// registry (internal/core) and the job log (internal/joblog). A file is
// committed by writing a ".tmp-<base>" sibling, fsyncing it, renaming it
// over the target and fsyncing the parent directory; a directory is
// committed by the same rename + directory fsync once everything inside it
// is fsynced. A crash at any instant leaves either the old content or the
// new, plus at most a .tmp-* leftover the owning store sweeps on its next
// write.
//
// The package also owns the crash-injection seam: a Hook runs before every
// named durable step of a store and aborts the operation when it returns
// an error, and HookFromEnv builds the process-killing hook the CI restart
// drills install from the AIIO_CRASH variable.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// TmpPrefix names every in-flight temp file or directory. Stores treat
// anything carrying it as debris of an interrupted commit.
const TmpPrefix = ".tmp-"

// WriteFile commits data to path: it writes a TmpPrefix sibling, fsyncs
// it, renames it over path and syncs the parent directory. A failed write
// or rename removes the temp file and leaves path's old content in place.
func WriteFile(path string, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), TmpPrefix+filepath.Base(path))
	if err := WriteSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteSync writes data to path and fsyncs it before closing, with no
// rename: for files inside a temp directory that Rename later commits
// whole.
func WriteSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename commits an already-fsynced file or directory by renaming it to
// newpath, then syncs newpath's parent directory so the rename itself is
// durable.
func Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	SyncDir(filepath.Dir(newpath))
	return nil
}

// SyncDir fsyncs a directory so a just-committed rename (or a just-created
// entry) is durable. Best effort: some filesystems refuse directory fsync,
// and a failure here only widens the crash window rather than corrupting
// state.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Hook is a fault-injection seam called before each named durable step of
// a store with (step, path). A non-nil error aborts the operation at that
// point, leaving whatever partial state a real crash would leave.
// Production stores run without one.
type Hook func(step, path string) error

// At runs the hook for one step; a nil Hook is a no-op. The returned error
// wraps the hook's, so errors.Is still finds an injected sentinel.
func (h Hook) At(step, path string) error {
	if h == nil {
		return nil
	}
	if err := h(step, path); err != nil {
		return fmt.Errorf("durable: aborted at %s (%s): %w", step, path, err)
	}
	return nil
}

// CrashEnv is the crash-injection variable of the restart drills:
// AIIO_CRASH=<step>:<n> kills the process with exit status 3 the n-th time
// any store it is installed on reaches the named step. Registry and job
// log step names are disjoint, so one spec names one durable step.
const CrashEnv = "AIIO_CRASH"

// HookFromEnv parses CrashEnv into a hook that kills the process — a real
// death, not a returned error, so recovery runs against abandoned file
// handles exactly as a power cut would leave them. It returns a nil Hook
// when the variable is unset and an error when it is malformed.
func HookFromEnv() (Hook, error) {
	spec := os.Getenv(CrashEnv)
	if spec == "" {
		return nil, nil
	}
	return crashHook(spec, func(step, path string, n int64) {
		fmt.Fprintf(os.Stderr, "%s: injected crash at %s (%s), occurrence %d\n",
			filepath.Base(os.Args[0]), step, path, n)
		os.Exit(3)
	})
}

// crashHook builds the hook HookFromEnv installs, calling die at the n-th
// occurrence of the named step. The occurrence counter is atomic: registry
// and job log steps fire on different goroutines.
func crashHook(spec string, die func(step, path string, n int64)) (Hook, error) {
	target, countStr, ok := strings.Cut(spec, ":")
	if !ok || target == "" {
		return nil, fmt.Errorf("%s must be <step>:<n>, got %q", CrashEnv, spec)
	}
	n, err := strconv.Atoi(countStr)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("%s count %q must be a positive integer", CrashEnv, countStr)
	}
	var seen atomic.Int64
	return func(step, path string) error {
		if step == target {
			if k := seen.Add(1); k >= int64(n) {
				die(step, path, k)
			}
		}
		return nil
	}, nil
}
