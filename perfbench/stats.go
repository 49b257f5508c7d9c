package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procSample is a point-in-time reading of the process's own resource
// use, from which the runtime.* layer metrics are differences.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU time of the process
	gcCPU   float64       // seconds of CPU spent in GC, as runtime/metrics estimates it
	totCPU  float64       // seconds of CPU available to the Go runtime
	gcCount uint64
}

var procMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(procMetrics))
	for i, n := range procMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return procSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   ms[0].Value.Float64(),
		totCPU:  ms[1].Value.Float64(),
		gcCount: ms[2].Value.Uint64(),
	}
}

// runtimeLayer returns the runtime.* metrics between two samples over
// ops operations.
func runtimeLayer(a, b procSample, ops int) map[string]float64 {
	out := map[string]float64{
		"runtime.cpu_util":     float64(b.cpu-a.cpu) / float64(b.wall.Sub(a.wall)),
		"runtime.heap_live_mb": heapLiveMB(),
	}
	if d := b.totCPU - a.totCPU; d > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
	if ops > 0 {
		out["runtime.gc_cycles_per_1k_ops"] = float64(b.gcCount-a.gcCount) * 1000 / float64(ops)
	}
	return out
}

func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// resetPeakRSS collects garbage, returns free memory to the OS, and
// restarts the kernel's peak-RSS tracking, so a later peakRSSMB covers
// only what follows: the measured window, not the benchmark's own
// input generation at boot.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset peak RSS:", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// machineStamp identifies the hardware and toolchain a result came from.
func machineStamp() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}
