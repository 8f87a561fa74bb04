package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user + system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "name: value [kB]" line of a /proc/self file.
func procField(file, name string) int64 {
	f, err := os.Open(file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), name+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fields[0], 10, 64)
		return v
	}
	return 0
}

// ioWriteBytes is what the process has caused to be sent to storage.
func ioWriteBytes() int64 { return procField("/proc/self/io", "write_bytes") }

// rssMiB is the process's resident set now.
func rssMiB() float64 { return float64(procField("/proc/self/status", "VmRSS")) / 1024 }

// rssPeakMiB is the process's resident-set high-water mark.
func rssPeakMiB() float64 { return float64(procField("/proc/self/status", "VmHWM")) / 1024 }

// resetRSSPeak returns freed memory and restarts the high-water mark, so
// that a pass run after others in one process reports its own peak. Best
// effort: where the kernel refuses, the peak stays the process's.
func resetRSSPeak() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // files vanish under compaction; count what is there
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
