package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is the record printed before each result: what ran, on
// what, and the noise sources that are not gated on (CPU steal, GC).
type environment struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	WALSync    string  `json:"wal_sync"`
	StealS     float64 `json:"steal_s"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseMs  float64 `json:"gc_pause_ms"`
	// UserS, SysS and MinorFaults are the whole run's process CPU time
	// and page faults served without I/O, from getrusage.
	UserS       float64  `json:"cpu_user_s"`
	SysS        float64  `json:"cpu_sys_s"`
	MinorFaults int64    `json:"minor_faults"`
	Mismatches  []string `json:"mismatches,omitempty"`

	steal0   float64
	gc0      uint32
	pause0Ns uint64
}

var errNoProcStat = errors.New("no cpu line in /proc/stat")

// clockTicks is USER_HZ, the unit of /proc/stat; 100 on Linux.
const clockTicks = 100

func startEnvironment(root, commit string) *environment {
	if commit == "" {
		commit = "unknown"
	}
	env := &environment{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Source:     sourceDigest(root),
		WALSync:    "always: fsync every batch (socserve default)",
	}
	env.steal0, _ = stealSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	env.gc0, env.pause0Ns = ms.NumGC, ms.PauseTotalNs
	return env
}

// finish records the steal and GC motion since start. Steal reads -1
// where /proc/stat is unavailable.
func (e *environment) finish() {
	if s, err := stealSeconds(); err == nil {
		e.StealS = s - e.steal0
	} else {
		e.StealS = -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.GCCycles = ms.NumGC - e.gc0
	e.GCPauseMs = float64(ms.PauseTotalNs-e.pause0Ns) / 1e6
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		e.UserS = float64(ru.Utime.Nano()) / 1e9
		e.SysS = float64(ru.Stime.Nano()) / 1e9
		e.MinorFaults = ru.Minflt
	}
}

// stealSeconds reads the machine-wide steal time from /proc/stat.
func stealSeconds() (float64, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0, err
			}
			return ticks / clockTicks, nil
		}
	}
	return 0, errNoProcStat
}

// sourceDigest hashes the Go sources and module files under root, so a
// record names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
