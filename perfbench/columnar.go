package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
)

// analytics-columnar runs declarative Q1/Q6-style jobs over in-memory
// TPC-H-lite records, so the vector kernels, AggState, lazy batches and
// string dictionaries do most of the work.
const (
	acScaleFactor    = 3 // lineitems ≈ 60000 × sf
	acCustomerCopies = 8 // the customer table, repeated with fresh keys
)

// columnarClasses are the job classes with their share of the sequence.
// Ordered by latency they reach cumulative shares of 0.15, 0.35 and 0.65.
var columnarClasses = []classShare{
	{"prefix", 0.15},
	{"segment", 0.20},
	{"q6", 0.30},
	{"q1", 0.35},
}

// segments are the customer market segments of TPC-H-lite.
var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

type columnar struct {
	ctx      *rheem.Context
	lineitem []any
	customer []any
	refs     map[string]map[string][]float64
}

// aggQuery is one drawn job: filters, an optional numeric map, and a
// grouped aggregation over one table.
type aggQuery struct {
	table  string
	wheres []core.Predicate
	mapCol int // -1: no map
	mapMul float64
	expr   core.ReduceExpr
}

func setupColumnar(dir string, seed int64) (*env, error) {
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true, DFSDir: filepath.Join(dir, "dfs")})
	if err != nil {
		return nil, err
	}
	db := datagen.GenTPCH(acScaleFactor, seed+505)
	w := &columnar{ctx: ctx, lineitem: datagen.AnySlice(db.Lineitem)}
	for k := 0; k < acCustomerCopies; k++ {
		for _, c := range db.Customer {
			r := c.Copy()
			r[datagen.CustKey] = int64(k*len(db.Customer)) + c.Int(datagen.CustKey)
			w.customer = append(w.customer, r)
		}
	}
	return &env{ctx: ctx, jobs: w.jobs}, nil
}

func (w *columnar) jobs(n int) []job {
	rng := rand.New(rand.NewSource(sequenceSeed))
	classes := deal(columnarClasses, n, rng)
	out := make([]job, n)
	for i, class := range classes {
		q := w.draw(class, rng)
		out[i] = job{class: class, plan: func() (*core.Plan, *core.Operator) { return w.build(q) },
			check: func(got []any) error { return w.check(q, got) }}
	}
	return out
}

func (w *columnar) draw(class string, rng *rand.Rand) aggQuery {
	switch class {
	case "q1":
		return aggQuery{table: "lineitem",
			wheres: []core.Predicate{{Col: datagen.LIQuantity, Op: core.PredLe, Value: float64(20 + rng.Intn(31))}},
			mapCol: datagen.LIExtPrice, mapMul: 1 + float64(2+rng.Intn(7))/100,
			expr: core.ReduceExpr{GroupCols: []int{datagen.LIQuantity}, Aggs: []core.AggSpec{
				{Op: core.AggSum, Col: datagen.LIExtPrice}, {Op: core.AggAvg, Col: datagen.LIDiscount},
				{Op: core.AggCount, Col: core.WholeQuantum}, {Op: core.AggMax, Col: datagen.LIExtPrice}}}}
	case "q6":
		lo := float64(2+rng.Intn(5)) / 100
		return aggQuery{table: "lineitem",
			wheres: []core.Predicate{
				{Col: datagen.LIDiscount, Op: core.PredGe, Value: lo},
				{Col: datagen.LIDiscount, Op: core.PredLe, Value: lo + 0.02},
				{Col: datagen.LIQuantity, Op: core.PredLt, Value: float64(24 + rng.Intn(7))}},
			mapCol: -1,
			expr: core.ReduceExpr{GroupCols: []int{datagen.LISuppKey}, Aggs: []core.AggSpec{
				{Op: core.AggSum, Col: datagen.LIExtPrice}, {Op: core.AggCount, Col: core.WholeQuantum}}}}
	case "segment":
		return aggQuery{table: "customer",
			wheres: []core.Predicate{{Col: datagen.CustSegment, Op: core.PredEq, Value: segments[rng.Intn(len(segments))]}},
			mapCol: -1,
			expr: core.ReduceExpr{GroupCols: []int{datagen.CustNationKey}, Aggs: []core.AggSpec{
				{Op: core.AggSum, Col: datagen.CustAcctBal}, {Op: core.AggCount, Col: core.WholeQuantum},
				{Op: core.AggMin, Col: datagen.CustAcctBal}}}}
	default: // prefix
		seg := segments[rng.Intn(len(segments))]
		return aggQuery{table: "customer",
			wheres: []core.Predicate{
				{Col: datagen.CustSegment, Op: core.PredPrefix, Value: seg[:1+rng.Intn(3)]},
				{Col: datagen.CustAcctBal, Op: core.PredGe, Value: float64(rng.Intn(5000))}},
			mapCol: datagen.CustAcctBal, mapMul: 0.5,
			expr: core.ReduceExpr{GroupCols: []int{datagen.CustSegment}, Aggs: []core.AggSpec{
				{Op: core.AggAvg, Col: datagen.CustAcctBal}, {Op: core.AggCount, Col: core.WholeQuantum}}}}
	}
}

func (w *columnar) build(q aggQuery) (*core.Plan, *core.Operator) {
	b := w.ctx.NewPlan("analytics-" + q.table)
	data := w.lineitem
	if q.table == "customer" {
		data = w.customer
	}
	d := b.LoadCollection(q.table, data)
	for i, p := range q.wheres {
		d = d.FilterWhere(fmt.Sprintf("where-%d", i), p)
	}
	if q.mapCol >= 0 {
		d = d.MapExpr("scale", core.MapExpr{Col: q.mapCol, Op: core.NumMul, Operand: q.mapMul})
	}
	return b.Plan(), d.ReduceByExpr("agg", q.expr).CollectSink()
}

// reference folds the query row at a time: group key -> aggregate values.
func (w *columnar) reference(q aggQuery) map[string][]float64 {
	data := w.lineitem
	if q.table == "customer" {
		data = w.customer
	}
	type acc struct {
		sum, count, min, max []float64
	}
	groups := map[any]*acc{}
	n := len(q.expr.Aggs)
rows:
	for _, raw := range data {
		r := raw.(core.Record)
		for i := range q.wheres {
			if !q.wheres[i].Eval(r) {
				continue rows
			}
		}
		field := func(col int) float64 {
			if col == q.mapCol {
				return r.Float(col) * q.mapMul
			}
			return r.Float(col)
		}
		key := r[q.expr.GroupCols[0]]
		a := groups[key]
		if a == nil {
			a = &acc{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
			for i := range a.min {
				a.min[i], a.max[i] = math.Inf(1), math.Inf(-1)
			}
			groups[key] = a
		}
		for i, spec := range q.expr.Aggs {
			v := 0.0
			if spec.Op != core.AggCount {
				v = field(spec.Col)
			}
			a.sum[i] += v
			a.count[i]++
			a.min[i] = math.Min(a.min[i], v)
			a.max[i] = math.Max(a.max[i], v)
		}
	}
	out := map[string][]float64{}
	for key, a := range groups {
		vals := make([]float64, n)
		for i, spec := range q.expr.Aggs {
			switch spec.Op {
			case core.AggSum:
				vals[i] = a.sum[i]
			case core.AggCount:
				vals[i] = a.count[i]
			case core.AggMin:
				vals[i] = a.min[i]
			case core.AggMax:
				vals[i] = a.max[i]
			case core.AggAvg:
				vals[i] = a.sum[i] / a.count[i]
			}
		}
		out[canon(key)] = vals
	}
	return out
}

func (w *columnar) check(q aggQuery, got []any) error {
	key := fmt.Sprintf("%+v", q)
	if w.refs == nil {
		w.refs = map[string]map[string][]float64{}
	}
	want, ok := w.refs[key]
	if !ok {
		want = w.reference(q)
		w.refs[key] = want
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for _, raw := range got {
		r, ok := raw.(core.Record)
		if !ok || len(r) != 1+len(q.expr.Aggs) {
			return fmt.Errorf("output row %v", raw)
		}
		vals, ok := want[canon(r[0])]
		if !ok {
			return fmt.Errorf("unexpected group %v", r[0])
		}
		for i := range q.expr.Aggs {
			if !closeTo(r.Float(1+i), vals[i]) {
				return fmt.Errorf("group %v aggregate %d: %v, want %v", r[0], i, r[1+i], vals[i])
			}
		}
	}
	return nil
}
