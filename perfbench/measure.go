package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rheem/internal/telemetry"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostSample is one reading of the host-wide CPU counters and load, taken
// so that a noisy run can be told apart from a slow program afterwards.
type hostSample struct {
	steal, total float64
	load1        float64
}

func readHost() hostSample {
	var h hostSample
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		fields := strings.Fields(line)
		for i, f := range fields[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			if i < 8 { // guest time is already counted in user time
				h.total += v
			}
			if i == 7 {
				h.steal = v
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			h.load1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	return h
}

// stealShare is the host's CPU steal share between two samples.
func stealShare(a, b hostSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// memSample is the allocation and GC state of the Go runtime.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// counters flattens a telemetry registry into "name{labels}" -> value:
// counter and gauge values, and for histograms the observation sum (under
// the series key) and count (under key + "#count").
func counters(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, fam := range reg.Snapshot().Families {
		for _, s := range fam.Series {
			key := fam.Name + "{" + s.Labels + "}"
			if fam.Kind == "histogram" {
				out[key] = s.Sum
				out[key+"#count"] = float64(s.Count)
				continue
			}
			out[key] = s.Value
		}
	}
	return out
}

// delta is after-before for every key of after.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// family sums all series of a flattened family, whatever their labels.
func family(m map[string]float64, name string) float64 {
	sum := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, name+"{") && !strings.HasSuffix(k, "#count") {
			sum += v
		}
	}
	return sum
}
