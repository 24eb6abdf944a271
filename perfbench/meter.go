package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// meter times one measured pass and records the host resources it
// used: wall time, the process's peak resident memory during the pass,
// and the bytes it allocated.
type meter struct {
	t0    time.Time
	alloc uint64
}

// measurement is what a meter read over one pass.
type measurement struct {
	wall    float64 // seconds
	peakMB  float64 // peak resident set during the pass, MiB
	allocMB float64 // heap bytes allocated during the pass, MiB
}

// startMeter returns the heap to the OS and resets the kernel's peak
// resident-set mark, so the peak read at stop belongs to this pass
// alone and not to set-up, checks or earlier passes.
func startMeter() *meter {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current VmRSS (Linux
	// 4.0+). If the kernel refuses, the peak covers the process so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &meter{t0: time.Now(), alloc: ms.TotalAlloc}
}

func (m *meter) stop() measurement {
	wall := time.Since(m.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return measurement{
		wall:    wall,
		peakMB:  float64(peakRSSKiB()) / 1024,
		allocMB: float64(ms.TotalAlloc-m.alloc) / (1 << 20),
	}
}

// peakRSSKiB reads VmHWM from /proc/self/status (0 if unavailable).
func peakRSSKiB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kib, err := strconv.ParseInt(string(f[0]), 10, 64)
				if err == nil {
					return kib
				}
			}
		}
	}
	return 0
}
