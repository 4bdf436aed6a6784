package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between order statistics; it does not modify values.
// An empty input yields 0.
func quantile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// The quiet quartile: machine noise on a shared box is one-sided — slow
// spells — so a run is summarised by the quartile of its rounds on the
// quiet side: the upper one for a rate, the lower one for a time or cost.
func quietRate(perRound []float64) float64 { return quantile(perRound, 0.75) }
func quietCost(perRound []float64) float64 { return quantile(perRound, 0.25) }

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// supports; /proc/<pid>/stat reports utime and stime in these ticks.
const clockTick = 100

// parseProcStat extracts utime+stime (fields 14 and 15) from the contents
// of /proc/<pid>/stat, in milliseconds. The command name (field 2) is
// wrapped in parentheses and may itself hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(data string) (float64, error) {
	end := strings.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", data)
	}
	fields := strings.Fields(data[end+1:])
	// fields[0] is field 3 (state), so utime and stime are fields[11], [12].
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	ut, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// parseSchedstat extracts the on-CPU time (first field, nanoseconds) from
// the contents of a /proc/<pid>/task/<tid>/schedstat, in milliseconds.
func parseSchedstat(data string) (float64, error) {
	fields := strings.Fields(data)
	if len(fields) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields in %q, want 3", len(fields), data)
	}
	ns, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: run time: %w", err)
	}
	return float64(ns) / 1e6, nil
}

// readProcCPUMs is the user+sys CPU time, in milliseconds, a process has
// consumed. It sums the threads' schedstat run times, which the scheduler
// keeps to the nanosecond; /proc/<pid>/stat counts 10 ms ticks, too coarse
// for a half-second round, and is the fallback on a kernel built without
// scheduler statistics.
func readProcCPUMs(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	total := 0.0
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ms, err := parseSchedstat(string(data))
		if err != nil {
			return 0, err
		}
		total += ms
	}
	if total > 0 {
		return total, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// parseStatusKB returns the value in kB of one "Key:   123 kB" line of
// /proc/<pid>/status.
func parseStatusKB(data, key string) (float64, error) {
	for _, line := range strings.Split(data, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// readPeakRSSMB is the process's resident-set high-water mark.
func readPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(data), "VmHWM")
	return kb / 1024, err
}
