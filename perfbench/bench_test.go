package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// signature identifies a job without running it: its class and the plan or
// script it submits.
func signature(j job) string {
	if j.plan == nil {
		return j.class + "|" + j.script + "|" + j.source
	}
	p, _ := j.plan()
	return j.class + "|" + p.String()
}

func TestSequencesAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var sigs [2][]string
			for i := range sigs {
				e, err := w.setup(t.TempDir(), 7)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range e.jobs(40) {
					sigs[i] = append(sigs[i], signature(j))
				}
				e.close()
			}
			for i := range sigs[0] {
				if sigs[0][i] != sigs[1][i] {
					t.Fatalf("job %d differs between set-ups:\n%s\n%s", i, sigs[0][i], sigs[1][i])
				}
			}
		})
	}
}

func TestDealKeepsShares(t *testing.T) {
	for _, n := range []int{20, 101, 360} {
		counts := map[string]int{}
		for _, c := range deal(paperMixClasses, n, rand.New(rand.NewSource(1))) {
			counts[c]++
		}
		for _, c := range paperMixClasses {
			if want := c.share * float64(n); float64(counts[c.name]) < want-1 || float64(counts[c.name]) > want+1 {
				t.Errorf("n=%d: class %s dealt %d times, want %.1f", n, c.name, counts[c.name], want)
			}
		}
	}
}

// layerCounts are the per-layer figures that must repeat exactly for a seed.
func layerCounts(p *pass) string {
	c := p.counts
	return fmt.Sprintf("plans=%v stages=%v replans=%d fused=%v vrows=%v vchains=%v fallbacks=%v hits=%v misses=%v stores=%v evictions=%v dropped=%d failed=%d",
		p.layers["optimizer.plans_considered"], p.layers["executor.stages"], p.replans,
		family(c, "rheem_fused_chains_total"), family(c, "rheem_columnar_rows_total"),
		family(c, "rheem_columnar_chains_total"), family(c, "rheem_columnar_fallbacks_total"),
		c["rheem_cache_hits_total{}"], c["rheem_cache_misses_total{}"],
		c["rheem_cache_stores_total{}"], c["rheem_cache_evictions_total{}"], p.dropped, p.failed())
}

func TestLayerCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var got [2]string
			for i := range got {
				e, err := setUp(w, t.TempDir(), 11)
				if err != nil {
					t.Fatal(err)
				}
				p := measure(e, 40, &tracer{})
				e.close()
				if p.mismatches > 0 {
					t.Fatalf("%d wrong outputs", p.mismatches)
				}
				got[i] = layerCounts(p)
			}
			if got[0] != got[1] {
				t.Fatalf("per-layer counts differ between runs:\n%s\n%s", got[0], got[1])
			}
			t.Log(got[0])
		})
	}
}

// definedMetrics reads the metric names BENCHMARK.json declares.
func definedMetrics(t *testing.T) (endToEnd, perLayer string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	return names(def.EndToEnd), names(def.PerLayer)
}

func metricNames(res *result) string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// TestHeldOutSeed runs every workload end to end, untraced and traced, on
// a seed not used while the benchmark was tuned, and checks that each run
// reports exactly the metrics BENCHMARK.json declares.
func TestHeldOutSeed(t *testing.T) {
	endToEnd, perLayer := definedMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(w.name, 90210, 1, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("traced=%v: result not correct: %+v", traced, res)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if got := metricNames(res); got != want {
					t.Errorf("traced=%v: metrics\n%s\nwant\n%s", traced, got, want)
				}
			}
		})
	}
}
