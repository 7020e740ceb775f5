package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"

	"rheem"
	"rheem/apps/bigdansing"
	"rheem/apps/datacivilizer"
	"rheem/apps/ml4all"
	"rheem/apps/xdb"
	"rheem/internal/core"
	"rheem/internal/datagen"
)

// paper-mix interleaves the paper's cross-platform use cases at laptop
// scale. Every UDF is opaque, so the work lands on the fused row kernels,
// relstore, pregel/graphmem and channel conversion; the columnar plane and
// the result cache are bypassed.
const (
	pmShards      = 4    // WordCount corpora on DFS
	pmLines       = 5000 // lines per corpus
	pmVocabulary  = 3000
	pmTaxRecords  = 600
	pmPoints      = 2000 // SGD training points (the loop-channel defect shows here)
	pmDim         = 8
	pmCoreVerts   = 1500 // CrocoPR shared core
	pmPrivVerts   = 750
	pmPRIters     = 10
	pmScaleFactor = 0.2 // TPC-H-lite for Q5
)

// paperMixClasses are the job classes with their share of the sequence.
// Ordered by latency, the completed classes reach cumulative shares of
// 0.10, 0.40 and 0.65 (SGD fails, see README.md), so p50 and p95 sit at
// least 10 points from any class boundary.
var paperMixClasses = []classShare{
	{"bigdansing", 0.09},
	{"wordcount", 0.27},
	{"q5", 0.225},
	{"crocopr", 0.315},
	{"sgd", 0.10},
}

type paperMix struct {
	ctx    *rheem.Context
	shards [][]string
	tax    []core.Record
	points []datagen.Point
	edgesA []core.Edge
	edgesB []core.Edge
	db     *datagen.TPCH
	lay    *datacivilizer.Layout

	wcRef map[int]map[string]int64
	q5Ref map[string]map[string]float64
	prRef map[int64]float64
	dcRef map[[2]int64]bool
}

func setupPaperMix(dir string, seed int64) (*env, error) {
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true, DFSDir: filepath.Join(dir, "dfs")})
	if err != nil {
		return nil, err
	}
	w := &paperMix{ctx: ctx}
	for k := 0; k < pmShards; k++ {
		lines := datagen.Words(pmLines, 10, pmVocabulary, seed*31+int64(k))
		w.shards = append(w.shards, lines)
		if err := ctx.DFS.WriteLines(fmt.Sprintf("corpus/%d.txt", k), lines); err != nil {
			return nil, err
		}
	}
	w.tax = datagen.TaxRecords(pmTaxRecords, 0.02, seed+101)
	w.points = datagen.Points(pmPoints, pmDim, seed+202)
	if err := ctx.DFS.WriteLines("points.csv", datagen.PointLines(w.points)); err != nil {
		return nil, err
	}
	w.edgesA, w.edgesB = datagen.CommunityGraphs(pmCoreVerts, pmPrivVerts, 3, seed+303)
	if err := ctx.DFS.WriteLines("commA.tsv", datagen.EdgeLines(w.edgesA)); err != nil {
		return nil, err
	}
	if err := ctx.DFS.WriteLines("commB.tsv", datagen.EdgeLines(w.edgesB)); err != nil {
		return nil, err
	}
	w.db = datagen.GenTPCH(pmScaleFactor, seed+404)
	if w.lay, err = datacivilizer.LoadPolystore(ctx, w.db, dir); err != nil {
		return nil, err
	}
	return &env{ctx: ctx, jobs: w.jobs}, nil
}

func (w *paperMix) jobs(n int) []job {
	rng := rand.New(rand.NewSource(sequenceSeed))
	classes := deal(paperMixClasses, n, rng)
	out := make([]job, n)
	for i, class := range classes {
		switch class {
		case "wordcount":
			shard := rng.Intn(pmShards)
			out[i] = job{class: class, plan: func() (*core.Plan, *core.Operator) { return w.wordCount(shard) },
				check: func(got []any) error { return w.checkWordCount(shard, got) }}
		case "q5":
			region := datagen.RegionNames[rng.Intn(len(datagen.RegionNames))]
			dateLo := int64(rng.Intn(2556 - 365))
			out[i] = job{class: class, plan: func() (*core.Plan, *core.Operator) {
				b, sink := datacivilizer.BuildQ5(w.ctx, w.lay, region, dateLo)
				return b.Plan(), sink
			}, check: func(got []any) error { return w.checkQ5(region, dateLo, got) }}
		case "crocopr":
			out[i] = job{class: class, plan: w.crocoPR, check: w.checkCrocoPR}
		case "sgd":
			sampleSeed := rng.Int63n(1 << 30)
			out[i] = job{class: class, plan: func() (*core.Plan, *core.Operator) { return w.sgd(sampleSeed) },
				check: w.checkSGD}
		case "bigdansing":
			out[i] = job{class: class, plan: w.bigDansing, check: w.checkBigDansing}
		}
	}
	return out
}

func (w *paperMix) wordCount(shard int) (*core.Plan, *core.Operator) {
	b := w.ctx.NewPlan("wordcount")
	counts := b.ReadTextFile(fmt.Sprintf("dfs://corpus/%d.txt", shard)).
		FlatMap("split", func(q any) []any {
			fields := strings.Fields(q.(string))
			out := make([]any, len(fields))
			for i, f := range fields {
				out[i] = core.KV{Key: f, Value: int64(1)}
			}
			return out
		}).
		ReduceBy("count", func(q any) any { return q.(core.KV).Key }, func(a, b any) any {
			ka, kb := a.(core.KV), b.(core.KV)
			return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
		})
	return b.Plan(), counts.CollectSink()
}

func (w *paperMix) checkWordCount(shard int, got []any) error {
	if w.wcRef == nil {
		w.wcRef = map[int]map[string]int64{}
	}
	want, ok := w.wcRef[shard]
	if !ok {
		want = map[string]int64{}
		for _, line := range w.shards[shard] {
			for _, f := range strings.Fields(line) {
				want[f]++
			}
		}
		w.wcRef[shard] = want
	}
	if len(got) != len(want) {
		return fmt.Errorf("wordcount: %d words, want %d", len(got), len(want))
	}
	for _, q := range got {
		kv, ok := q.(core.KV)
		if !ok || want[fmt.Sprint(kv.Key)] != kv.Value {
			return fmt.Errorf("wordcount: wrong count %v", q)
		}
	}
	return nil
}

func (w *paperMix) checkQ5(region string, dateLo int64, got []any) error {
	key := fmt.Sprintf("%s/%d", region, dateLo)
	if w.q5Ref == nil {
		w.q5Ref = map[string]map[string]float64{}
	}
	want, ok := w.q5Ref[key]
	if !ok {
		want = referenceQ5(w.db, region, dateLo)
		w.q5Ref[key] = want
	}
	if len(got) != len(want) {
		return fmt.Errorf("q5 %s: %d nations, want %d", key, len(got), len(want))
	}
	for _, q := range got {
		r, ok := q.(core.Record)
		if !ok || len(r) != 2 || !closeTo(r.Float(1), want[r.String(0)]) {
			return fmt.Errorf("q5 %s: wrong row %v", key, q)
		}
	}
	return nil
}

// referenceQ5 computes TPC-H Q5 with nested Go loops.
func referenceQ5(db *datagen.TPCH, region string, dateLo int64) map[string]float64 {
	var regionKey int64 = -1
	for _, r := range db.Region {
		if r.String(datagen.RegionName) == region {
			regionKey = r.Int(datagen.RegionKey)
		}
	}
	nationName := map[int64]string{}
	for _, n := range db.Nation {
		if n.Int(datagen.NationRegionKey) == regionKey {
			nationName[n.Int(datagen.NationKey)] = n.String(datagen.NationName)
		}
	}
	suppNation := map[int64]int64{}
	for _, s := range db.Supplier {
		suppNation[s.Int(datagen.SuppKey)] = s.Int(datagen.SuppNationKey)
	}
	custNation := map[int64]int64{}
	for _, c := range db.Customer {
		custNation[c.Int(datagen.CustKey)] = c.Int(datagen.CustNationKey)
	}
	orderCust := map[int64]int64{}
	for _, o := range db.Orders {
		if d := o.Int(datagen.OrderDate); d >= dateLo && d < dateLo+365 {
			orderCust[o.Int(datagen.OrderKey)] = o.Int(datagen.OrderCustKey)
		}
	}
	rev := map[string]float64{}
	for _, l := range db.Lineitem {
		ck, ok := orderCust[l.Int(datagen.LIOrderKey)]
		if !ok {
			continue
		}
		sn := suppNation[l.Int(datagen.LISuppKey)]
		if custNation[ck] != sn {
			continue
		}
		if name, ok := nationName[sn]; ok {
			rev[name] += l.Float(datagen.LIExtPrice) * (1 - l.Float(datagen.LIDiscount))
		}
	}
	return rev
}

func (w *paperMix) crocoPR() (*core.Plan, *core.Operator) {
	b := w.ctx.NewPlan("crocopr")
	ranks := xdb.BuildCrossCommunityPageRank(w.ctx, b.ReadTextFile("dfs://commA.tsv"), b.ReadTextFile("dfs://commB.tsv"), pmPRIters)
	return b.Plan(), ranks.CollectSink()
}

func (w *paperMix) checkCrocoPR(got []any) error {
	if w.prRef == nil {
		w.prRef = referenceCrocoPR(w.edgesA, w.edgesB, pmPRIters)
	}
	if len(got) != len(w.prRef) {
		return fmt.Errorf("crocopr: %d ranks, want %d", len(got), len(w.prRef))
	}
	for _, q := range got {
		kv, ok := q.(core.KV)
		if !ok {
			return fmt.Errorf("crocopr: quantum %T", q)
		}
		id, _ := kv.Key.(int64)
		rank, _ := kv.Value.(float64)
		if !closeTo(rank, w.prRef[id]) {
			return fmt.Errorf("crocopr: vertex %d rank %g, want %g", id, rank, w.prRef[id])
		}
	}
	return nil
}

// referenceCrocoPR normalizes both communities like the CrocoPR task,
// intersects them and runs the power iteration (dangling mass is dropped,
// as the graph engines do).
func referenceCrocoPR(a, b []core.Edge, iterations int) map[int64]float64 {
	norm := func(edges []core.Edge) map[core.Edge]bool {
		set := map[core.Edge]bool{}
		for _, e := range edges {
			if e.Src == 0 && e.Dst == 0 {
				continue
			}
			if e.Src == e.Dst {
				e.Dst++
			}
			set[e] = true
		}
		return set
	}
	inA, inB := norm(a), norm(b)
	out := map[int64][]int64{}
	vertices := map[int64]bool{}
	for e := range inA {
		if inB[e] {
			out[e.Src] = append(out[e.Src], e.Dst)
			vertices[e.Src], vertices[e.Dst] = true, true
		}
	}
	n := float64(len(vertices))
	ranks := map[int64]float64{}
	for v := range vertices {
		ranks[v] = 1 / n
	}
	for it := 0; it < iterations; it++ {
		next := map[int64]float64{}
		for v := range vertices {
			next[v] = 0.15 / n
		}
		for v, targets := range out {
			share := 0.85 * ranks[v] / float64(len(targets))
			for _, t := range targets {
				next[t] += share
			}
		}
		ranks = next
	}
	return ranks
}

func (w *paperMix) sgd(sampleSeed int64) (*core.Plan, *core.Operator) {
	b := w.ctx.NewPlan("sgd")
	final, err := ml4all.BuildPlan(w.ctx, "sgd", b.ReadTextFile("dfs://points.csv"), ml4all.SGD{LearningRate: 0.5},
		ml4all.Options{Iterations: 20, SampleSize: 100, Seed: sampleSeed, Dim: pmDim})
	if err != nil {
		panic(err) // the options above are constants
	}
	return b.Plan(), final.CollectSink()
}

// checkSGD accepts a model that classifies the training points at least as
// well as a plain linear separator trained on them usually does.
func (w *paperMix) checkSGD(got []any) error {
	if len(got) != 1 {
		return fmt.Errorf("sgd: %d models, want 1", len(got))
	}
	model, ok := got[0].([]float64)
	if !ok || len(model) != pmDim {
		return fmt.Errorf("sgd: model %T", got[0])
	}
	correct := 0
	for _, p := range w.points {
		dot := 0.0
		for j, f := range p.Features {
			dot += f * model[j]
		}
		if (dot >= 0) == (p.Label > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(w.points)); acc < 0.75 {
		return fmt.Errorf("sgd: training accuracy %.3f < 0.75", acc)
	}
	return nil
}

func (w *paperMix) bigDansing() (*core.Plan, *core.Operator) {
	b, sink, err := bigdansing.BuildDetectPlan(w.ctx, "bigdansing", datagen.AnySlice(w.tax), taxRule)
	if err != nil {
		panic(err) // the rule is a constant
	}
	return b.Plan(), sink
}

// taxRule is the paper's denial constraint: a higher salary must not pay a
// lower tax.
var taxRule = bigdansing.DenialConstraint{
	IDCol: datagen.TaxColID,
	ColA:  datagen.TaxColSalary, OpA: core.Greater,
	ColB: datagen.TaxColTax, OpB: core.Less,
	BlockCol: -1,
}

func (w *paperMix) checkBigDansing(got []any) error {
	if w.dcRef == nil {
		w.dcRef = map[[2]int64]bool{}
		for _, a := range w.tax {
			for _, b := range w.tax {
				if a.Int(datagen.TaxColID) != b.Int(datagen.TaxColID) &&
					a.Float(datagen.TaxColSalary) > b.Float(datagen.TaxColSalary) &&
					a.Float(datagen.TaxColTax) < b.Float(datagen.TaxColTax) {
					w.dcRef[[2]int64{a.Int(datagen.TaxColID), b.Int(datagen.TaxColID)}] = true
				}
			}
		}
	}
	seen := map[[2]int64]bool{}
	for _, q := range got {
		pair, ok := q.(core.Record)
		if !ok || len(pair) != 2 {
			return fmt.Errorf("bigdansing: quantum %v", q)
		}
		a, okA := pair[0].(core.Record)
		b, okB := pair[1].(core.Record)
		if !okA || !okB {
			return fmt.Errorf("bigdansing: pair %v", q)
		}
		k := [2]int64{a.Int(datagen.TaxColID), b.Int(datagen.TaxColID)}
		if !w.dcRef[k] || seen[k] {
			return fmt.Errorf("bigdansing: unexpected violation %v", k)
		}
		seen[k] = true
	}
	if len(seen) != len(w.dcRef) {
		return fmt.Errorf("bigdansing: %d violations, want %d", len(seen), len(w.dcRef))
	}
	return nil
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
