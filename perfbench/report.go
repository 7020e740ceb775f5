package main

import (
	"fmt"
	"math"
	"sort"
)

// printReport prints a run's metrics and diagnostics for a human reader;
// the JSON result line follows it.
func printReport(workload string, seed int64, res *result, base *pass, steal, load0, load1 float64) {
	fmt.Printf("workload %s  seed %d  jobs %d  completed %d  failed %d  correct %v\n",
		workload, seed, base.attempted, base.completed, base.failed(), res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  latency samples: %d reads, %d beyond p95; %d writes\n",
		len(base.readLat), len(base.readLat)-int(math.Ceil(0.95*float64(len(base.readLat)))), len(base.writeLat))
	for _, line := range classBoundaries(base.readLat, base.readCls) {
		fmt.Println("  " + line)
	}
	classes := make([]string, 0, len(base.firstErr))
	for c := range base.firstErr {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("  first error in class %s: %s\n", c, base.firstErr[c])
	}
	fmt.Printf("  host: cpu steal %.4f, loadavg %.2f -> %.2f\n", steal, load0, load1)
}

// classBoundaries orders the read classes by median latency and reports
// where the cumulative class boundaries fall relative to the p50 and p95
// ranks: a percentile within 5 points of a boundary flips between classes
// from run to run.
func classBoundaries(lat []float64, cls []string) []string {
	byClass := map[string][]float64{}
	for i, c := range cls {
		byClass[c] = append(byClass[c], lat[i])
	}
	type entry struct {
		name   string
		median float64
		share  float64
	}
	var entries []entry
	for c, v := range byClass {
		entries = append(entries, entry{c, median(v), float64(len(v)) / float64(len(lat))})
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].median < entries[b].median })
	lines := []string{}
	cum := 0.0
	near := ""
	for i, e := range entries {
		cum += e.share
		lines = append(lines, fmt.Sprintf("class %-12s median %9.3f ms  share %.3f  cumulative %.3f", e.name, e.median, e.share, cum))
		if i == len(entries)-1 {
			break
		}
		for _, p := range []float64{0.50, 0.95} {
			if math.Abs(cum-p) < 0.05 {
				near += fmt.Sprintf(" p%.0f~%.3f", p*100, cum)
			}
		}
	}
	if near != "" {
		lines = append(lines, "WARNING: percentile near a class boundary:"+near)
	}
	return lines
}
