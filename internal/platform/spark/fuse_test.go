package spark

import (
	"reflect"
	"strings"
	"testing"

	"rheem/internal/core"
)

// narrowChainOps builds src -> 8 narrow ops (6 identity maps, 2 filters that
// each keep 90%) over n int64 quanta, wired into a plan. The last op is the
// stage's terminal output.
func narrowChainOps(n int) []*core.Operator {
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	p := core.NewPlan("narrow-chain")
	ops := []*core.Operator{
		{Kind: core.KindCollectionSource, Label: "src", Params: core.Params{Collection: data}},
	}
	for i := 0; i < 8; i++ {
		var op *core.Operator
		switch i {
		case 2:
			op = &core.Operator{Kind: core.KindFilter, Label: "f-mod10",
				UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%10 != 0 }}}
		case 5:
			op = &core.Operator{Kind: core.KindFilter, Label: "f-mod7",
				UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%7 != 0 }}}
		default:
			op = &core.Operator{Kind: core.KindMap, Label: "m-id",
				UDF: core.UDFs{Map: func(q any) any { return q }}}
		}
		ops = append(ops, op)
	}
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	return ops
}

// narrowChainWant evaluates narrowChainOps in plain Go, one operator at a
// time over the whole input: the expected output rows, in order, and every
// operator's output count.
func narrowChainWant(ops []*core.Operator) ([]any, map[*core.Operator]int64) {
	rows := ops[0].Params.Collection
	cards := map[*core.Operator]int64{ops[0]: int64(len(rows))}
	for _, op := range ops[1:] {
		var next []any
		for _, q := range rows {
			switch op.Kind {
			case core.KindMap:
				next = append(next, op.UDF.Map(q))
			case core.KindFilter:
				if op.UDF.Pred(q) {
					next = append(next, q)
				}
			}
		}
		rows = next
		cards[op] = int64(len(rows))
	}
	return rows, cards
}

func chainStage(d *Driver, ops []*core.Operator) (*core.Stage, *core.Inputs) {
	last := ops[len(ops)-1]
	return &core.Stage{ID: 1, Platform: d.Name(), Ops: ops, TerminalOuts: []*core.Operator{last}}, core.NewInputs()
}

func TestConfigNoOverheadSentinel(t *testing.T) {
	// Zero keeps the scaled-down cluster defaults (backward compatible)...
	def := Config{}.withDefaults()
	if def.ContextStartupMs != 150 || def.JobStartupMs != 12 || def.ShuffleLatencyMs != 4 {
		t.Fatalf("zero config got defaults %+v", def)
	}
	// ...while the negative sentinel means a genuinely free operation and
	// must NOT be silently overwritten with the default.
	free := Config{ContextStartupMs: NoOverheadMs, JobStartupMs: NoOverheadMs, ShuffleLatencyMs: NoOverheadMs}.withDefaults()
	if free.ContextStartupMs != 0 || free.JobStartupMs != 0 || free.ShuffleLatencyMs != 0 {
		t.Fatalf("sentinel config not honored: %+v", free)
	}
	// Explicit positive values pass through untouched.
	set := Config{ContextStartupMs: 7, JobStartupMs: 3, ShuffleLatencyMs: 1}.withDefaults()
	if set.ContextStartupMs != 7 || set.JobStartupMs != 3 || set.ShuffleLatencyMs != 1 {
		t.Fatalf("explicit config rewritten: %+v", set)
	}
}

func TestPartitionCopiesInput(t *testing.T) {
	src := []any{int64(1), int64(2), int64(3), int64(4)}
	r := Partition(src, 2)
	// Mutating the caller's slice after partitioning must not leak into the
	// RDD (partitions used to alias the input's backing array).
	src[0] = int64(99)
	if got := r.Parts[0][0]; got != int64(1) {
		t.Fatalf("partition aliases caller slice: got %v", got)
	}
	// Appending to one partition must not clobber its neighbor: the
	// partitions are sliced with capacity clamped to their own window.
	p0 := append(r.Parts[0], int64(42))
	if r.Parts[1][0] != int64(3) {
		t.Fatalf("append to part 0 bled into part 1: %v", r.Parts[1])
	}
	_ = p0
}

// TestFusedChainMatchesUnfused checks the fused 8-op chain against a
// plain-Go per-operator evaluation: same rows in the same order, same
// per-operator output counts.
func TestFusedChainMatchesUnfused(t *testing.T) {
	d := NewWithConfig(nil, fastConf())
	ops := narrowChainOps(10_000)

	stage, in := chainStage(d, ops)
	outs, stats, err := d.Execute(stage, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.FusedChains) != 1 || len(stats.FusedChains[0]) != 8 {
		t.Fatalf("expected one fused chain of 8 ops, got %v", stats.FusedChains)
	}
	got := outs[ops[len(ops)-1]].Payload.(*RDD).Collect()

	want, wantCards := narrowChainWant(ops)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fused output (%d rows) differs from the plain-Go reference (%d rows)", len(got), len(want))
	}
	// Per-op observed cardinalities must also agree: the fused kernel counts
	// each step's emissions as if the operator ran on its own.
	for _, op := range ops {
		if stats.OutCards[op] != wantCards[op] {
			t.Fatalf("op %s cardinality: fused %d, reference %d", op, stats.OutCards[op], wantCards[op])
		}
	}
}

func TestFusedChainUDFPanicFailsJob(t *testing.T) {
	// A panicking UDF in the middle of a fused kernel must surface as a
	// failed stage — not a lost partition or a deadlocked pool feeder.
	d := NewWithConfig(nil, fastConf())
	ops := narrowChainOps(10_000)
	ops[4].UDF.Map = func(q any) any {
		if q.(int64) == 7777 {
			panic("boom at 7777")
		}
		return q
	}
	stage, in := chainStage(d, ops)
	_, _, err := d.Execute(stage, in)
	if err == nil {
		t.Fatal("expected mid-chain UDF panic to fail the job")
	}
	if !strings.Contains(err.Error(), "UDF panic") || !strings.Contains(err.Error(), "boom at 7777") {
		t.Fatalf("panic not surfaced as stage error: %v", err)
	}
}

// declChainOps builds src -> 8 declarative narrow ops (6 numeric-expression
// maps, 2 predicate filters that each keep ~90%) over n int64 quanta — the
// same shape as narrowChainOps but in the forms the vectorized kernel
// compiles to column loops.
func declChainOps(n int) []*core.Operator {
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	p := core.NewPlan("decl-chain")
	ops := []*core.Operator{
		{Kind: core.KindCollectionSource, Label: "src", Params: core.Params{Collection: data}},
	}
	mkMap := func(label string, op core.NumOp, operand int64) *core.Operator {
		e := core.MapExpr{Col: core.WholeQuantum, Op: op, Operand: operand}
		return &core.Operator{Kind: core.KindMap, Label: label,
			UDF: core.UDFs{Map: e.Fn(), MapExpr: &e}}
	}
	mkFilter := func(label string, op core.PredOp, v int64) *core.Operator {
		return &core.Operator{Kind: core.KindFilter, Label: label,
			Params: core.Params{Where: &core.Predicate{Col: core.WholeQuantum, Op: op, Value: v}}}
	}
	ops = append(ops,
		mkMap("m-add1", core.NumAdd, 1),
		mkMap("m-add2", core.NumAdd, 2),
		mkFilter("f-gt", core.PredGt, int64(n)/10), // keeps ~90%
		mkMap("m-mul2", core.NumMul, 2),
		mkMap("m-sub3", core.NumSub, 3),
		mkFilter("f-le", core.PredLe, 2*int64(n)-int64(n)/5), // keeps ~90%
		mkMap("m-add5", core.NumAdd, 5),
		mkMap("m-sub1", core.NumSub, 1),
	)
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	return ops
}

func TestColumnarChainMatchesRowChain(t *testing.T) {
	d := NewWithConfig(nil, fastConf())
	ops := declChainOps(50_000)

	stage, in := chainStage(d, ops)
	outs, stats, err := d.Execute(stage, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Vectorized) != 1 || stats.Vectorized[0].VecSteps != 8 {
		t.Fatalf("expected one fully-vectorized chain, got %+v", stats.Vectorized)
	}
	if stats.Vectorized[0].Batches == 0 || stats.Vectorized[0].Rows == 0 {
		t.Fatalf("column path never engaged: %+v", stats.Vectorized[0])
	}
	columnar := outs[ops[len(ops)-1]].Payload.(*RDD).Collect()

	prev := core.SetColumnarDisabled(true)
	stage2, in2 := chainStage(d, ops)
	outs2, stats2, err := d.Execute(stage2, in2)
	core.SetColumnarDisabled(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2.Vectorized) != 0 {
		t.Fatalf("columnar ran while disabled: %+v", stats2.Vectorized)
	}
	row := outs2[ops[len(ops)-1]].Payload.(*RDD).Collect()

	if !reflect.DeepEqual(columnar, row) {
		t.Fatalf("columnar output (%d rows) differs from row (%d rows)", len(columnar), len(row))
	}
	for _, op := range ops {
		if stats.OutCards[op] != stats2.OutCards[op] {
			t.Fatalf("op %s cardinality: columnar %d, row %d", op, stats.OutCards[op], stats2.OutCards[op])
		}
	}
}

// aggChainOps builds src -> filter -> map -> declarative reduce-by over n
// record quanta: the shape whose trailing aggregation the vectorized
// grouped-aggregation kernel absorbs whole-batch.
func aggChainOps(n int) []*core.Operator {
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{int64(i % 9973), float64(i%101) / 2, "g" + string(rune('0'+i%7))}
	}
	p := core.NewPlan("agg-chain")
	ops := []*core.Operator{
		{Kind: core.KindCollectionSource, Label: "src", Params: core.Params{Collection: data}},
	}
	we := core.Predicate{Col: 0, Op: core.PredGt, Value: int64(500)}
	me := core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(5)}
	re := core.ReduceExpr{GroupCols: []int{2}, Aggs: []core.AggSpec{
		{Op: core.AggSum, Col: 0},
		{Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggAvg, Col: 1},
	}}
	ops = append(ops,
		&core.Operator{Kind: core.KindFilter, Label: "f-gt", Params: core.Params{Where: &we}},
		&core.Operator{Kind: core.KindMap, Label: "m-add", UDF: core.UDFs{Map: me.Fn(), MapExpr: &me}},
		&core.Operator{Kind: core.KindReduceBy, Label: "agg", UDF: core.UDFs{ReduceExpr: &re, Key: re.KeyFn()}},
	)
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	return ops
}

// BenchmarkColumnarAggChain measures a declarative filter->map->reduce-by
// chain over 1M records, with the trailing aggregation absorbed into the
// fused kernel: vectorized (whole batches into the grouped-aggregation
// kernel) vs. the fused row path (RHEEM_NO_COLUMNAR).
func BenchmarkColumnarAggChain(b *testing.B) {
	for _, mode := range []struct {
		name string
		off  bool
	}{{"vectorized", false}, {"row-fused", true}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := core.SetColumnarDisabled(mode.off)
			defer core.SetColumnarDisabled(prev)
			d := NewWithConfig(nil, Config{
				Parallelism:      8,
				ContextStartupMs: NoOverheadMs,
				JobStartupMs:     NoOverheadMs,
				ShuffleLatencyMs: NoOverheadMs,
			})
			ops := aggChainOps(1_000_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stage, in := chainStage(d, ops)
				if _, _, err := d.Execute(stage, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparkNarrowChain measures an 8-op narrow chain over 1M quanta
// run as one single-pass kernel per partition.
func BenchmarkSparkNarrowChain(b *testing.B) {
	d := NewWithConfig(nil, Config{
		Parallelism:      8,
		ContextStartupMs: NoOverheadMs,
		JobStartupMs:     NoOverheadMs,
		ShuffleLatencyMs: NoOverheadMs,
	})
	ops := narrowChainOps(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage, in := chainStage(d, ops)
		if _, _, err := d.Execute(stage, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnarNarrowChain measures an 8-op declarative chain over 1M
// quanta, vectorized (column loops with a selection vector) vs. the fused
// row kernel (RHEEM_NO_COLUMNAR path). Both modes fuse; the delta isolates
// the columnar data plane.
func BenchmarkColumnarNarrowChain(b *testing.B) {
	for _, mode := range []struct {
		name string
		off  bool
	}{{"vectorized", false}, {"row-fused", true}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := core.SetColumnarDisabled(mode.off)
			defer core.SetColumnarDisabled(prev)
			d := NewWithConfig(nil, Config{
				Parallelism:      8,
				ContextStartupMs: NoOverheadMs,
				JobStartupMs:     NoOverheadMs,
				ShuffleLatencyMs: NoOverheadMs,
			})
			ops := declChainOps(1_000_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stage, in := chainStage(d, ops)
				if _, _, err := d.Execute(stage, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
