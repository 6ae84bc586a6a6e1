package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envStamp is written into every result file: a number is only
// comparable with another taken in the same environment.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// GitSHA/GitDirty are "unknown" outside a git checkout (the
	// acceptance driver's checkout is not one).
	GitSHA   string  `json:"git_sha"`
	GitDirty string  `json:"git_dirty"`
	Seed     uint64  `json:"seed"`
	Threads  int     `json:"threads"`
	Seconds  float64 `json:"seconds"`
	// DataDirFS is the filesystem type under the fleet daemons' data
	// directory. On tmpfs an fsync is free, so WAL and cache timings
	// taken there say nothing about a disk.
	DataDirFS string `json:"data_dir_fs"`
	Sizes     sizes  `json:"sizes"`
}

func stampEnv(seed uint64, threads int, seconds float64, dataDir string, sz sizes) envStamp {
	sha, dirty := gitState()
	return envStamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GitSHA: sha, GitDirty: dirty, Seed: seed, Threads: threads, Seconds: seconds,
		DataDirFS: fsType(dataDir), Sizes: sz,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitState() (sha, dirty string) {
	git := func(args ...string) (string, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, "git", args...).Output()
		return strings.TrimSpace(string(out)), err
	}
	sha, err := git("rev-parse", "HEAD")
	if err != nil || sha == "" {
		return "unknown", "unknown"
	}
	st, err := git("status", "--porcelain")
	if err != nil {
		return sha, "unknown"
	}
	return sha, strconv.FormatBool(st != "")
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// Each workload runs in a process of its own, so the mark is that
// workload's. 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
