package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/rescache"
	"rheem/internal/telemetry"
	"rheem/latin"
	"rheem/restapi"
)

// service-repeat sends small RheemLatin scripts to the REST service with
// the result cache on. Scripts come from a Zipf-skewed pool of templates
// over small DFS sources; the cache holds less than the pool's working set.
// About one operation in ten stores a new version of a source and then
// invalidates the source's cache entries.
const (
	srSources   = 6    // pool sources on DFS
	srLines     = 3000 // lines per source
	srVersions  = 4    // distinct contents a source cycles through
	srRanges    = 4    // range-count variants per source
	srZipf      = 1.1  // skew of script popularity
	srWriteFrac = 0.10
	// srCacheBytes is below the pool's working set, so entries are evicted.
	srCacheBytes = 512 << 10
)

// The templates' UDFs; package-level so their symbols are stable.
func splitWords(q any) []any {
	fields := strings.Fields(q.(string))
	out := make([]any, len(fields))
	for i, w := range fields {
		out[i] = core.KV{Key: w, Value: int64(1)}
	}
	return out
}

func wordOf(q any) any { return q.(core.KV).Key }

func sumCounts(a, b any) any {
	ka, kb := a.(core.KV), b.(core.KV)
	return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
}

func firstNumber(q any) any {
	head, _, _ := strings.Cut(q.(string), " ")
	f, _ := strconv.ParseFloat(head, 64)
	return f
}

func sumFloats(a, b any) any { return a.(float64) + b.(float64) }

func serviceUDFs() *latin.Registry {
	reg := latin.NewRegistry()
	reg.RegisterFlatMap("splitWords", splitWords)
	reg.RegisterKey("wordOf", wordOf)
	reg.RegisterReduce("sumCounts", sumCounts)
	reg.RegisterMap("firstNumber", firstNumber)
	reg.RegisterReduce("sumFloats", sumFloats)
	return reg
}

// template is one parameterized read script over a source.
type template struct {
	class  string
	script func(src string) string
	ref    func(lines []string) []any
}

func rangeTemplate(lo, hi string) template {
	return template{
		class: "range",
		script: func(src string) string {
			return fmt.Sprintf("l = load '%s'; a = filter l where col -1 >= '%s'; b = filter a where col -1 < '%s'; n = count b; collect n;", src, lo, hi)
		},
		ref: func(lines []string) []any {
			n := int64(0)
			for _, l := range lines {
				if l >= lo && l < hi {
					n++
				}
			}
			return []any{n}
		},
	}
}

var serviceTemplates = func() []template {
	ts := []template{
		{class: "wordcount",
			script: func(src string) string {
				return fmt.Sprintf("l = load '%s'; t = flatmap l using splitWords; c = reduceby t key wordOf using sumCounts; collect c;", src)
			},
			ref: func(lines []string) []any {
				counts := map[string]int64{}
				for _, l := range lines {
					for _, w := range strings.Fields(l) {
						counts[w]++
					}
				}
				out := make([]any, 0, len(counts))
				for w, c := range counts {
					out = append(out, core.KV{Key: w, Value: c})
				}
				return out
			}},
		{class: "sum",
			script: func(src string) string {
				return fmt.Sprintf("l = load '%s'; v = map l using firstNumber; s = reduce v using sumFloats; collect s;", src)
			},
			ref: func(lines []string) []any {
				sum := 0.0
				for _, l := range lines {
					sum += firstNumber(l).(float64)
				}
				return []any{sum}
			}},
	}
	for r := 0; r < srRanges; r++ {
		lo := fmt.Sprintf("%d", 1+2*r)
		ts = append(ts, rangeTemplate(lo, fmt.Sprintf("%d", 2+2*r)))
	}
	return ts
}()

type serviceRepeat struct {
	contents [][]string // per source version content: [source*srVersions+v]
	warm     []string
	svc      *service
}

func poolSource(k int) string      { return fmt.Sprintf("dfs://pool/s%d.txt", k) }
func stagedSource(k, v int) string { return fmt.Sprintf("dfs://staging/s%d-v%d.txt", k, v) }

// sourceLines draws a source's lines: a zero-padded number, then words.
func sourceLines(rng *rand.Rand) []string {
	zipf := rand.NewZipf(rng, 1.3, 1, 400)
	lines := make([]string, srLines)
	for i := range lines {
		var b strings.Builder
		fmt.Fprintf(&b, "%06d", rng.Intn(1000000))
		for w := 0; w < 4+rng.Intn(5); w++ {
			fmt.Fprintf(&b, " w%03d", zipf.Uint64())
		}
		lines[i] = b.String()
	}
	return lines
}

func setupService(dir string, seed int64) (*env, error) {
	reg := telemetry.NewRegistry()
	ctx, err := rheem.NewContext(rheem.Config{
		FastSimulation: true,
		DFSDir:         filepath.Join(dir, "dfs"),
		Metrics:        reg,
		ResultCache:    rescache.New(rescache.Options{MaxBytes: srCacheBytes, Metrics: reg}),
	})
	if err != nil {
		return nil, err
	}
	w := &serviceRepeat{}
	rng := rand.New(rand.NewSource(seed + 707))
	for k := 0; k < srSources; k++ {
		for v := 0; v < srVersions; v++ {
			lines := sourceLines(rng)
			w.contents = append(w.contents, lines)
			if err := ctx.DFS.WriteLines(strings.TrimPrefix(stagedSource(k, v), "dfs://"), lines); err != nil {
				return nil, err
			}
			if v == 0 {
				if err := ctx.DFS.WriteLines(strings.TrimPrefix(poolSource(k), "dfs://"), lines); err != nil {
					return nil, err
				}
			}
		}
	}
	w.warm = sourceLines(rng)
	if err := ctx.DFS.WriteLines("warm/s.txt", w.warm); err != nil {
		return nil, err
	}
	if w.svc, err = startService(ctx, serviceUDFs()); err != nil {
		return nil, err
	}
	return &env{ctx: ctx, jobs: w.jobs, svc: w.svc, warm: w.warmUp}, nil
}

// serviceClasses are the operation classes with their share of the
// sequence. Ordered by latency, the read classes reach cumulative shares of
// 0.28 and 0.61. Cache hits and misses form two more latency modes inside
// the sum and range classes: about two thirds of their reads hit, which puts
// the boundary between the modes near 0.41, below p50.
var serviceClasses = []classShare{
	{"sum", 0.25},
	{"range", 0.30},
	{"wordcount", 0.35},
	{"write", srWriteFrac},
}

// jobs draws the sequence: a read picks a script of its class — template
// variant and source — from a Zipf-skewed popularity ranking; a write
// stores the next version of a uniformly drawn source. Each read's
// reference is the content its source has at that point of the sequence.
func (w *serviceRepeat) jobs(n int) []job {
	rng := rand.New(rand.NewSource(sequenceSeed))
	classes := deal(serviceClasses, n, rng)
	type script struct {
		t template
		k int
	}
	pools := map[string][]script{}
	for _, t := range serviceTemplates {
		for k := 0; k < srSources; k++ {
			pools[t.class] = append(pools[t.class], script{t, k})
		}
	}
	zipfs := map[string]*rand.Zipf{}
	for _, c := range serviceClasses[:3] {
		pool := pools[c.name]
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		zipfs[c.name] = rand.NewZipf(rng, srZipf, 1, uint64(len(pool)-1))
	}
	version := make([]int, srSources)
	refs := map[string]string{} // script@version -> digest of the reference output
	out := make([]job, n)
	for i, class := range classes {
		if class == "write" {
			k := rng.Intn(srSources)
			version[k]++
			v := version[k] % srVersions
			out[i] = job{class: class, source: poolSource(k),
				script: fmt.Sprintf("s = load '%s'; store s '%s';", stagedSource(k, v), poolSource(k))}
			continue
		}
		s := pools[class][zipfs[class].Uint64()]
		script := s.t.script(poolSource(s.k))
		key := fmt.Sprintf("%s@%d", script, version[s.k]%srVersions)
		if refs[key] == "" {
			refs[key] = digest(s.t.ref(w.contents[s.k*srVersions+version[s.k]%srVersions]))
		}
		want := refs[key]
		out[i] = job{class: class, script: script, ref: key, check: func(got []any) error { return sameDigest(got, want) }}
	}
	return out
}

// warmUp runs every template and a write against a source outside the
// pool, then empties the cache so every timed pass starts from the same
// state.
func (w *serviceRepeat) warmUp() error {
	for _, t := range serviceTemplates {
		raw, err := w.svc.do(job{script: t.script("dfs://warm/s.txt")})
		if err != nil {
			return err
		}
		out, err := decodeOutput(raw)
		if err != nil {
			return err
		}
		if err := sameDigest(out, digest(t.ref(w.warm))); err != nil {
			return fmt.Errorf("warm-up %s: %w", t.class, err)
		}
	}
	write := job{source: "dfs://warm/s.txt", script: "s = load 'dfs://warm/s.txt'; store s 'dfs://warm/copy.txt';"}
	if _, err := w.svc.do(write); err != nil {
		return err
	}
	return w.svc.clearCache()
}

// sameDigest compares an output with the digest of its reference: both are
// multisets of canonical quanta.
func sameDigest(got []any, want string) error {
	if d := digest(got); d != want {
		return fmt.Errorf("output digest %s, want %s (%d quanta)", d, want, len(got))
	}
	return nil
}

// service is the REST server on a loopback port and its one-connection
// client.
type service struct {
	srv    *restapi.Server
	udfs   *latin.Registry
	hs     *http.Server
	served chan error
	client *http.Client
	base   string

	// runRTT sums the round trips of the runs requests to /v1/run.
	runRTT time.Duration
	runs   int
}

func startService(ctx *rheem.Context, udfs *latin.Registry) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    restapi.New(ctx, udfs),
		udfs:   udfs,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base:   "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a failed shutdown leaves nothing the run still needs
	<-s.served
	_ = s.srv.Close(ctx)
}

func (s *service) resetRTT()                 { s.runRTT, s.runs = 0, 0 }
func (s *service) rtt() (time.Duration, int) { return s.runRTT, s.runs }

// do sends a job: a read is one POST /v1/run; a write is the store script
// followed by DELETE /v1/cache?source=.
func (s *service) do(j job) (any, error) {
	body, err := json.Marshal(map[string]string{"script": j.script})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := s.request(http.MethodPost, "/v1/run", body)
	s.runRTT += time.Since(start)
	s.runs++
	if err != nil || !j.write() {
		return resp, err
	}
	return s.request(http.MethodDelete, "/v1/cache?source="+url.QueryEscape(j.source), nil)
}

func (s *service) clearCache() error {
	_, err := s.request(http.MethodDelete, "/v1/cache", nil)
	return err
}

func (s *service) request(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(method + " " + path + ": " + resp.Status + ": " + strings.TrimSpace(string(data)))
	}
	return data, nil
}
