package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/optimizer"
	"rheem/internal/rescache"
	"rheem/latin"
)

// pass is what one run of a job sequence observed.
type pass struct {
	attempted, completed int
	errors, mismatches   int
	wall, cpu            time.Duration
	mem0, mem1           memSample

	readLat  []float64 // ms, completed reads
	readCls  []string  // class of each readLat entry
	writeLat []float64 // ms, completed writes
	digests  []string  // per job: output digest, "error" or "mismatch"
	counts   map[string]float64
	firstErr map[string]string

	// Set on service-repeat: request round trips to /v1/run and their number.
	runRTT time.Duration
	runs   int

	// Traced passes only.
	selfTimes map[string]float64 // span name -> summed self time (ms)
	layers    map[string]float64 // profile and counter sums
	replans   int
	dropped   int
	writes    int
}

func (p *pass) failed() int { return p.errors + p.mismatches }

// measure runs n jobs of the environment's sequence. With a tracer, every
// job goes through the public calls layer by layer and per-job counters
// and profiles are read; without one, each job is one ordinary call. Job
// outputs are kept and checked against their references after the timed
// phase.
func measure(e *env, n int, tr *tracer) *pass {
	jobs := e.jobs(n)
	p := &pass{attempted: n, firstErr: map[string]string{}, layers: map[string]float64{}}
	raws := make([]any, n)
	errs := make([]error, n)
	lats := make([]float64, n)
	if e.svc != nil {
		e.svc.runRTT, e.svc.runs = 0, 0
	}
	c0 := counters(e.ctx.Metrics)
	p.mem0 = readMem()
	cpu0 := cpuTime()
	start := time.Now()
	for i, j := range jobs {
		t0 := time.Now()
		if tr == nil {
			raws[i], errs[i] = e.run(j)
		} else {
			raws[i], errs[i] = e.runTraced(j, tr, p)
		}
		lats[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.mem1 = readMem()
	p.counts = delta(c0, counters(e.ctx.Metrics))
	if e.svc != nil {
		p.runRTT, p.runs = e.svc.runRTT, e.svc.runs
	}

	verified := map[string]string{}
	for i, j := range jobs {
		if errs[i] != nil {
			p.errors++
			p.digests = append(p.digests, "error")
			if _, ok := p.firstErr[j.class]; !ok {
				p.firstErr[j.class] = errs[i].Error()
			}
			continue
		}
		sum := ""
		if !j.write() {
			var err error
			if sum, err = verify(j, raws[i], verified); err != nil {
				p.mismatches++
				p.digests = append(p.digests, "mismatch")
				fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): wrong output: %v\n", i, j.class, err)
				continue
			}
		}
		p.completed++
		p.digests = append(p.digests, sum)
		if j.write() {
			p.writeLat = append(p.writeLat, lats[i])
		} else {
			p.readLat = append(p.readLat, lats[i])
			p.readCls = append(p.readCls, j.class)
		}
	}
	return p
}

// verify checks a read's output against its reference and returns the
// output's digest. A REST response body already verified for the same
// reference is not decoded again.
func verify(j job, raw any, verified map[string]string) (string, error) {
	key := ""
	if body, ok := raw.([]byte); ok {
		h := sha256.Sum256(body)
		key = j.ref + "|" + string(h[:])
		if sum, ok := verified[key]; ok {
			return sum, nil
		}
	}
	out, err := decodeOutput(raw)
	if err == nil {
		err = j.check(out)
	}
	if err != nil {
		return "", err
	}
	sum := digest(out)
	if key != "" {
		verified[key] = sum
	}
	return sum, nil
}

// run executes one job the way a user of the system would: one Execute
// call for a plan, one HTTP request (two for a write) for a script.
func (e *env) run(j job) (any, error) {
	if j.plan == nil {
		return e.svc.do(j)
	}
	plan, sink := j.plan()
	res, err := e.ctx.Execute(plan)
	if err != nil {
		return nil, err
	}
	return res.CollectFrom(sink)
}

// runTraced executes one job through the public calls that Context.Execute
// and the REST handler make, one layer at a time, with a span around each.
func (e *env) runTraced(j job, tr *tracer, p *pass) (any, error) {
	c0 := counters(e.ctx.Metrics)
	root := tr.begin("job", -1)
	defer tr.end(root)
	var plan *core.Plan
	var sink *core.Operator
	if j.plan != nil {
		s := tr.begin("plan.build", root)
		plan, sink = j.plan()
		tr.end(s)
	} else {
		s := tr.begin("latin.compile", root)
		compiled, err := latin.Compile(j.script, e.svc.udfs)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		plan = compiled.Plan
		for _, op := range compiled.Sinks {
			sink = op
		}
	}
	var sess *rescache.Session
	if e.ctx.Cache != nil {
		s := tr.begin("rescache.probe", root)
		sess = e.ctx.Cache.Begin(context.Background(), plan)
		tr.end(s)
		defer func() {
			s := tr.begin("rescache.close", root)
			sess.Close()
			tr.end(s)
		}()
	}
	s := tr.begin("optimizer.optimize", root)
	ep, err := e.ctx.Optimize(plan)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if sess != nil {
		s := tr.begin("optimizer.mark_cache", root)
		optimizer.MarkCacheOuts(ep, sess.Fingerprints(), e.ctx.Cache.MinCostMs())
		tr.end(s)
	}
	s = tr.begin("executor.execute", root)
	res, err := e.ctx.ExecutePlanned(plan, ep)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	p.recordJob(res, delta(c0, counters(e.ctx.Metrics)))
	if j.write() {
		s := tr.begin("rescache.invalidate", root)
		p.dropped += e.ctx.Cache.InvalidateSource(j.source)
		tr.end(s)
		p.writes++
		return nil, nil
	}
	return res.CollectFrom(sink)
}

// recordJob folds one traced job's profile and counter deltas into the
// per-layer sums.
func (p *pass) recordJob(res *rheem.Result, d map[string]float64) {
	prof := res.Profile()
	for _, st := range prof.Stages {
		p.layers["platform."+st.Platform+".stage_ms"] += st.WallMs
		p.layers["platform."+st.Platform+".cpu_ms"] += st.CPUMs
	}
	p.layers["core.bytes_moved"] += float64(prof.BytesMoved)
	p.replans += res.Replans()
	p.layers["optimizer.plans_considered"] += d["rheem_optimizer_plans_considered_total{}"]
	p.layers["executor.stages"] += family(d, "rheem_executor_stages_total")
}

// decodeOutput turns a job's raw output into quanta: plans return them
// directly, the REST service returns the JSON body of /v1/run.
func decodeOutput(raw any) ([]any, error) {
	switch v := raw.(type) {
	case []any:
		return v, nil
	case []byte:
		var resp struct {
			Sinks map[string][]json.RawMessage `json:"sinks"`
		}
		if err := json.Unmarshal(v, &resp); err != nil {
			return nil, fmt.Errorf("decode response: %w", err)
		}
		if len(resp.Sinks) != 1 {
			return nil, fmt.Errorf("response has %d sinks, want 1", len(resp.Sinks))
		}
		var out []any
		for _, quanta := range resp.Sinks {
			for _, raw := range quanta {
				q, err := core.DecodeQuantum(raw)
				if err != nil {
					return nil, fmt.Errorf("decode quantum: %w", err)
				}
				out = append(out, q)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unexpected output %T", raw)
}

// digest is an order-insensitive fingerprint of a job's output, with floats
// rounded so that summation order does not change it.
func digest(out []any) string {
	items := make([]string, len(out))
	for i, q := range out {
		items[i] = canon(q)
	}
	sort.Strings(items)
	h := sha256.Sum256([]byte(strings.Join(items, "\n")))
	return hex.EncodeToString(h[:8])
}

func canon(q any) string {
	switch v := q.(type) {
	case string:
		return "s:" + v
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', 6, 64)
	case []float64:
		parts := make([]string, len(v))
		for i, f := range v {
			parts[i] = canon(f)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case core.Record:
		parts := make([]string, len(v))
		for i, f := range v {
			parts[i] = canon(f)
		}
		return "(" + strings.Join(parts, ",") + ")"
	case core.KV:
		return canon(v.Key) + "=" + canon(v.Value)
	}
	return fmt.Sprintf("%T:%v", q, q)
}

// cacheCounts are the result-cache counters a traced pass must reproduce.
var cacheCounts = []string{
	"rheem_cache_hits_total{}", "rheem_cache_misses_total{}",
	"rheem_cache_stores_total{}", "rheem_cache_evictions_total{}",
}

// sameProgram checks that a traced pass measured the same program as the
// untraced one: identical outputs job by job, and identical cache counts.
func sameProgram(base, traced *pass) error {
	if len(base.digests) != len(traced.digests) {
		return fmt.Errorf("%d vs %d jobs", len(base.digests), len(traced.digests))
	}
	for i := range base.digests {
		if base.digests[i] != traced.digests[i] {
			return fmt.Errorf("job %d output %s vs %s", i, base.digests[i], traced.digests[i])
		}
	}
	for _, k := range cacheCounts {
		if base.counts[k] != traced.counts[k] {
			return fmt.Errorf("%s: %v vs %v", k, base.counts[k], traced.counts[k])
		}
	}
	return nil
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func (p *pass) endToEnd(setupS float64) map[string]metric {
	lat := sortedCopy(p.readLat)
	done := math.Max(float64(p.completed), 1)
	return map[string]metric{
		"jobs_per_s":       {float64(p.completed) / p.wall.Seconds(), "1/s"},
		"job_p50_ms":       {percentile(lat, 50), "ms"},
		"job_p95_ms":       {percentile(lat, 95), "ms"},
		"cpu_ms_per_job":   {float64(p.cpu) / float64(time.Millisecond) / done, "ms"},
		"alloc_mb_per_job": {float64(p.mem1.totalAlloc-p.mem0.totalAlloc) / (1 << 20) / done, "MiB"},
		"peak_rss_mb":      {peakRSSMB(), "MiB"},
		"setup_s":          {setupS, "s"},
		"completed_frac":   {float64(p.completed) / float64(p.attempted), "ratio"},
	}
}

// platforms are the engines whose stage time the profile attributes.
var platforms = []string{"streams", "spark", "flink", "relstore", "pregel", "graphmem"}

// perLayer computes the per-layer metrics: timings and counts from the
// traced pass, REST and runtime figures from the untraced one (which the
// traced pass would distort), and the tracing overhead between the two.
func perLayer(base, tp *pass) map[string]metric {
	jobs := float64(tp.attempted)
	m := map[string]metric{}
	perJob := func(name, unit string, v float64) { m[name] = metric{v / jobs, unit} }
	self := tp.selfTimes

	perJob("latin.compile_ms", "ms", self["latin.compile"])
	perJob("optimizer.optimize_ms", "ms", self["optimizer.optimize"])
	perJob("executor.execute_ms", "ms", self["executor.execute"])
	perJob("rescache.probe_ms", "ms", self["rescache.probe"])
	perJob("optimizer.plans_considered", "count", tp.layers["optimizer.plans_considered"])
	perJob("progressive.replans", "count", float64(tp.replans))
	perJob("executor.stages", "count", tp.layers["executor.stages"])
	for _, pl := range platforms {
		perJob("platform."+pl+".stage_ms", "ms", tp.layers["platform."+pl+".stage_ms"])
		perJob("platform."+pl+".cpu_ms", "ms", tp.layers["platform."+pl+".cpu_ms"])
	}
	perJob("core.bytes_moved", "bytes", tp.layers["core.bytes_moved"])

	c := tp.counts
	perJob("driverutil.fused_chains", "count", family(c, "rheem_fused_chains_total"))
	perJob("driverutil.vector_rows", "count", family(c, "rheem_columnar_rows_total"))
	perJob("driverutil.agg_rows", "count", family(c, "rheem_columnar_agg_rows_total"))
	vec := family(c, "rheem_columnar_chains_total")
	m["driverutil.vector_frac"] = metric{safeDiv(vec, vec+family(c, "rheem_columnar_fallbacks_total")), "ratio"}
	perJob("core.dict_columns", "count", family(c, "rheem_columnar_dict_columns_total"))

	hits, misses := c["rheem_cache_hits_total{}"], c["rheem_cache_misses_total{}"]
	m["rescache.hit_frac"] = metric{safeDiv(hits, hits+misses), "ratio"}
	perJob("rescache.stores_per_job", "count", c["rheem_cache_stores_total{}"])
	perJob("rescache.evictions_per_job", "count", c["rheem_cache_evictions_total{}"])
	m["rescache.dropped_per_write"] = metric{safeDiv(float64(tp.dropped), float64(tp.writes)), "count"}

	// The REST layer only exists on the untraced path: its overhead is the
	// client round trip minus the job time the service itself recorded.
	b := base.counts
	jobSecs := b[`rheem_job_duration_seconds{}`]
	m["restapi.overhead_ms"] = metric{safeDiv(base.runRTT.Seconds()-jobSecs, float64(base.runs)) * 1000, "ms"}
	m["jobs.queue_wait_ms"] = metric{safeDiv(b[`rheem_span_duration_seconds{kind="queue-wait"}`], float64(base.runs)) * 1000, "ms"}
	m["write_p50_ms"] = metric{percentile(sortedCopy(base.writeLat), 50), "ms"}
	m["failed_frac"] = metric{float64(base.failed()) / float64(base.attempted), "ratio"}

	bj := float64(base.attempted)
	m["runtime.gc_cycles"] = metric{float64(base.mem1.numGC-base.mem0.numGC) / bj, "count"}
	m["runtime.gc_pause_ms"] = metric{float64(base.mem1.pauseNs-base.mem0.pauseNs) / 1e6 / bj, "ms"}
	m["trace.overhead_pct"] = metric{(tp.wall.Seconds()/base.wall.Seconds() - 1) * 100, "%"}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
