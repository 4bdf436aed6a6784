package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envInfo describes the machine and the run, so two reports can be told
// apart when their numbers differ.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	CPUModel   string `json:"cpu_model"`
	// TempFS is the filesystem type holding the model store and job log
	// (fsync on tmpfs costs nothing; on a disk it dominates ingest).
	TempFS        string `json:"temp_fs"`
	LoadAvgBefore string `json:"loadavg_before"`
	LoadAvgAfter  string `json:"loadavg_after"`
	// BuildS and InputsS are excluded from setup_s: compiling the server
	// and generating the synthetic inputs are the benchmark's costs, not
	// the system's.
	BuildS  float64 `json:"build_s"`
	InputsS float64 `json:"inputs_s"`
}

func nproc() int { return runtime.NumCPU() }

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitSHA is the checked-out commit, or "unknown" outside a git work tree
// (the benchmark driver runs from an exported tree).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem dir lives on, for the handful of types a
// benchmark box is likely to have; otherwise the magic number in hex.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

func readEnv(tempDir string) envInfo {
	return envInfo{
		NProc:         nproc(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GitSHA:        gitSHA(),
		CPUModel:      cpuModel(),
		TempFS:        fsType(tempDir),
		LoadAvgBefore: loadAvg(),
	}
}
