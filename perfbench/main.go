// Command perfbench is the repository's standing benchmark. It runs one
// workload per process from a seed, measures end-to-end metrics on an
// untraced pass, and with -trace 1 adds a layer-by-layer traced pass that
// yields the per-layer metrics. See README.md for the workloads and the
// metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rheem"
	"rheem/internal/core"
)

// workload is one traffic mix. rate is its nominal job throughput on a
// 2-core host: a run executes round(rate × seconds) jobs, a fixed count so
// that the class mix and the cache counts repeat exactly.
type workload struct {
	name  string
	rate  float64
	setup func(dir string, seed int64) (*env, error)
}

var workloads = []workload{
	{"paper-mix", 18, setupPaperMix},
	{"analytics-columnar", 90, setupColumnar},
	{"service-repeat", 90, setupService},
}

// sequenceSeed draws every workload's job sequence: the classes and their
// order, query parameters, script choices and the write schedule. The
// sequence is the same in every run, so the class mix, the plans and the
// cache's hit and miss counts repeat exactly; the run's seed draws the data.
const sequenceSeed = 1

// setupReps is how often a run sets up its workload; setup_s is the median.
const setupReps = 7

// env is one set-up workload: a context with its inputs loaded.
type env struct {
	ctx  *rheem.Context
	jobs func(n int) []job
	svc  *service // service-repeat only
	// warm replaces the default warm-up (the first job of every class).
	warm func() error
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.close()
	}
}

// job is one operation of a workload's fixed sequence: a dataflow plan, or
// a RheemLatin script sent to the REST service. A job with a source is a
// write: its script stores a new version of that source, after which the
// source's cache entries are invalidated.
type job struct {
	class  string
	plan   func() (*core.Plan, *core.Operator)
	script string
	source string
	check  func(got []any) error
	// ref names the reference a read's output is checked against.
	ref string
}

func (j job) write() bool { return j.source != "" }

// classShare is a job class and its exact share of a sequence.
type classShare struct {
	name  string
	share float64
}

// deal returns n class names with the classes' shares (largest remainder),
// in an order shuffled by rng.
func deal(classes []classShare, n int, rng *rand.Rand) []string {
	counts := make([]int, len(classes))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(classes))
	left := n
	for i, c := range classes {
		exact := c.share * float64(n)
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < left; k++ {
		counts[rems[k%len(rems)].i]++
	}
	out := make([]string, 0, n)
	for i, c := range classes {
		for k := 0; k < counts[i]; k++ {
			out = append(out, c.name)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-mix, analytics-columnar or service-repeat")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs and job sequence")
	seconds := flag.Int("seconds", 15, "nominal length of the timed phase; sets the job count")
	traced := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's DFS and span files")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *traced == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobCount is the fixed number of jobs a run of the given length executes.
func jobCount(w workload, seconds int) int {
	n := int(w.rate*float64(seconds) + 0.5)
	if n < 20 {
		n = 20
	}
	return n
}

func run(name string, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n := jobCount(w, seconds)
	host0 := readHost()

	e, setupS, err := setupMedian(w, dir, seed)
	if err != nil {
		return nil, err
	}
	base := measure(e, n, nil)
	e.close()
	res := &result{Correct: base.mismatches == 0, Attempted: base.attempted, Failed: base.failed()}
	if !traced {
		res.Metrics = base.endToEnd(setupS)
	} else {
		e, err := setUp(w, filepath.Join(dir, "traced"), seed)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		tr := &tracer{}
		tp := measure(e, n, tr)
		e.close()
		tp.selfTimes = tr.selfTimes()
		if err := sameProgram(base, tp); err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: traced pass differs from untraced pass:", err)
		}
		if tp.mismatches > 0 {
			res.Correct = false
		}
		res.Metrics = perLayer(base, tp)
		if err := tr.write(filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	host1 := readHost()
	printReport(name, seed, res, base, stealShare(host0, host1), host0.load1, host1.load1)
	return res, nil
}

// setupMedian sets the workload up setupReps times, keeping the last set-up
// for the timed phase, and returns the median set-up time. Warm-up is part
// of set-up; a GC runs before anything is timed.
func setupMedian(w workload, dir string, seed int64) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setUp(w, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return e, median(times), nil
}

// setUp builds the workload in dir and warms it up.
func setUp(w workload, dir string, seed int64) (*env, error) {
	e, err := w.setup(dir, seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := warmUp(e); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// warmUp runs the first job of every class of a throwaway sequence, so
// lazily built state exists before timing.
func warmUp(e *env) error {
	if e.warm != nil {
		return e.warm()
	}
	seen := map[string]bool{}
	for _, j := range e.jobs(64) {
		if seen[j.class] {
			continue
		}
		seen[j.class] = true
		_, _ = e.run(j) // a failing class (the SGD defect) fails again when timed
	}
	return nil
}
