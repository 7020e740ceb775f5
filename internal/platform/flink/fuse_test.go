package flink

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core"
)

func sortInt64s(data []any) {
	sort.Slice(data, func(i, j int) bool { return data[i].(int64) < data[j].(int64) })
}

// narrowChainOps builds src -> 8 narrow ops (6 identity maps, 2 filters that
// each keep most quanta) over n int64 quanta, wired into a plan.
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
	def := Config{}.withDefaults()
	if def.ContextStartupMs != 80 || def.JobStartupMs != 6 || def.ExchangeLatencyMs != 2 {
		t.Fatalf("zero config got defaults %+v", def)
	}
	free := Config{ContextStartupMs: NoOverheadMs, JobStartupMs: NoOverheadMs, ExchangeLatencyMs: NoOverheadMs}.withDefaults()
	if free.ContextStartupMs != 0 || free.JobStartupMs != 0 || free.ExchangeLatencyMs != 0 {
		t.Fatalf("sentinel config not honored: %+v", free)
	}
}

// TestFusedChainMatchesUnfused checks the fused 8-op chain against a
// plain-Go per-operator evaluation: same rows, same per-operator output
// counts.
func TestFusedChainMatchesUnfused(t *testing.T) {
	d := NewWithConfig(nil, fastConf())
	ops := narrowChainOps(10_000)
	last := ops[len(ops)-1]

	stage, in := chainStage(d, ops)
	outs, stats, err := d.Execute(stage, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.FusedChains) != 1 || len(stats.FusedChains[0]) != 8 {
		t.Fatalf("expected one fused chain of 8 ops, got %v", stats.FusedChains)
	}
	got := outs[last].Payload.(*DataSet).Collect()

	// Flink shards round-robin, so only per-instance order is stable:
	// compare as multisets after sorting.
	want, wantCards := narrowChainWant(ops)
	sortInt64s(got)
	sortInt64s(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fused output (%d rows) differs from the plain-Go reference (%d rows)", len(got), len(want))
	}
	for _, op := range ops {
		if stats.OutCards[op] != wantCards[op] {
			t.Fatalf("op %s cardinality: fused %d, reference %d", op, stats.OutCards[op], wantCards[op])
		}
	}
}

func TestFusedChainUDFPanicFailsJob(t *testing.T) {
	// A panic inside a fused segment must fail the job, not deadlock the
	// pipeline: the segment goroutine drains its input after recovering.
	d := NewWithConfig(nil, fastConf())
	ops := narrowChainOps(10_000)
	ops[4].UDF.Map = func(q any) any {
		if q.(int64) == 4242 {
			panic("boom at 4242")
		}
		return q
	}
	stage, in := chainStage(d, ops)
	_, _, err := d.Execute(stage, in)
	if err == nil {
		t.Fatal("expected mid-chain UDF panic to fail the job")
	}
	if !strings.Contains(err.Error(), "UDF panic") || !strings.Contains(err.Error(), "boom at 4242") {
		t.Fatalf("panic not surfaced as stage error: %v", err)
	}
}

// BenchmarkFlinkNarrowChain measures an 8-op narrow chain over 1M quanta
// run as vectors of fuseBatch quanta through one kernel per instance.
func BenchmarkFlinkNarrowChain(b *testing.B) {
	d := NewWithConfig(nil, Config{
		Parallelism:       8,
		ContextStartupMs:  NoOverheadMs,
		JobStartupMs:      NoOverheadMs,
		ExchangeLatencyMs: NoOverheadMs,
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
