package rheem

// Differential testing for the narrow-operator executor: every engine runs
// map/filter/flatmap/project only as compiled fused kernels, so the
// reference they are checked against is interpretPlan, a plain-Go
// operator-at-a-time evaluation of the plan that shares no code with the
// engines. The checks cover random plan shapes and the paper's Figure-9
// pipeline, pinned to each general-purpose engine and under optimizer
// choice.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rheem/internal/core"
)

// crossCheckPlatforms are the pins the crosschecks run under; "" leaves
// the choice to the optimizer.
var crossCheckPlatforms = []string{"", "streams", "spark", "flink"}

func platformName(platform string) string {
	if platform == "" {
		return "optimizer-choice"
	}
	return platform
}

// pinPlan pins every operator of p to platform ("" leaves the choice to
// the optimizer).
func pinPlan(p *core.Plan, platform string) {
	for _, op := range p.Operators() {
		op.TargetPlatform = platform
	}
}

// interpretPlan evaluates p operator by operator over whole in-memory
// slices and returns sink's input. It covers the kinds the crosscheck
// generators emit and fails the test on any other.
func interpretPlan(t *testing.T, p *core.Plan, sink *core.Operator) []any {
	t.Helper()
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	out := map[*core.Operator][]any{}
	for _, op := range order {
		var in [][]any
		for _, producer := range op.Inputs() {
			in = append(in, out[producer])
		}
		var res []any
		switch op.Kind {
		case core.KindCollectionSource:
			res = append(res, op.Params.Collection...)
		case core.KindMap:
			for _, q := range in[0] {
				res = append(res, op.UDF.Map(q))
			}
		case core.KindFilter:
			for _, q := range in[0] {
				if op.UDF.Pred(q) {
					res = append(res, q)
				}
			}
		case core.KindFlatMap:
			for _, q := range in[0] {
				res = append(res, op.UDF.FlatMap(q)...)
			}
		case core.KindDistinct:
			seen := map[any]bool{}
			for _, q := range in[0] {
				if k := core.GroupKey(q); !seen[k] {
					seen[k] = true
					res = append(res, q)
				}
			}
		case core.KindSort:
			res = append(res, in[0]...)
			sort.SliceStable(res, func(i, j int) bool {
				if op.UDF.Less != nil {
					return op.UDF.Less(res[i], res[j])
				}
				return core.CompareAny(res[i], res[j]) < 0
			})
		case core.KindReduceBy:
			acc := map[any]any{}
			var keys []any
			for _, q := range in[0] {
				k := core.GroupKey(op.UDF.Key(q))
				if cur, ok := acc[k]; ok {
					acc[k] = op.UDF.Reduce(cur, q)
				} else {
					acc[k] = q
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				res = append(res, acc[k])
			}
		case core.KindUnion:
			res = append(append(res, in[0]...), in[1]...)
		case core.KindJoin:
			keyR, combine := op.UDF.KeyRight, op.UDF.Combine
			if keyR == nil {
				keyR = op.UDF.Key
			}
			if combine == nil {
				combine = func(l, r any) any { return core.Record{l, r} }
			}
			for _, l := range in[0] {
				for _, r := range in[1] {
					if core.GroupKey(op.UDF.Key(l)) == core.GroupKey(keyR(r)) {
						res = append(res, combine(l, r))
					}
				}
			}
		case core.KindCollectionSink:
			res = in[0]
		default:
			t.Fatalf("interpretPlan: no rule for %s", op)
		}
		out[op] = res
	}
	return out[sink]
}

// checkAgainstInterpreter executes plan on ctx and compares its sink output,
// as a multiset, with the interpreter's.
func checkAgainstInterpreter(t *testing.T, ctx *Context, plan *core.Plan, sink *core.Operator, want []string) {
	t.Helper()
	res, err := ctx.Execute(plan)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan)
	}
	out, err := res.CollectFrom(sink)
	if err != nil {
		t.Fatal(err)
	}
	got := canonical(t, out)
	if len(got) != len(want) {
		t.Fatalf("engines produced %d quanta (platforms %v), interpreter %d\n%s",
			len(got), res.Platforms(), len(want), plan)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("result %d differs: engines %q vs interpreter %q (platforms %v)",
				j, got[j], want[j], res.Platforms())
		}
	}
}

func TestCrossCheckFusedAgainstUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for i := 0; i < 15; i++ {
		seed := rng.Int63()
		refPlan, refSink := randomPlan(fastCtx(t), rand.New(rand.NewSource(seed)), i)
		want := canonical(t, interpretPlan(t, refPlan, refSink))
		for _, platform := range crossCheckPlatforms {
			t.Run(fmt.Sprintf("plan%d/%s", i, platformName(platform)), func(t *testing.T) {
				// Fresh context and plan per run so operators do not alias.
				ctx := fastCtx(t)
				plan, sink := randomPlan(ctx, rand.New(rand.NewSource(seed)), i)
				pinPlan(plan, platform)
				checkAgainstInterpreter(t, ctx, plan, sink, want)
			})
		}
	}
}

// fig9Pipeline is the shape of the paper's Figure-9 single-platform tasks:
// a long narrow prefix (flatmap/map/filter) into one aggregation.
func fig9Pipeline(ctx *Context, platform string) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan("fig9-" + platformName(platform))
	data := make([]any, 3000)
	for i := range data {
		data[i] = fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%29)
	}
	counts := b.LoadCollection("lines", data).
		FlatMap("split", func(q any) []any {
			var out []any
			word := ""
			for _, r := range q.(string) + " " {
				if r == ' ' {
					if word != "" {
						out = append(out, word)
					}
					word = ""
					continue
				}
				word += string(r)
			}
			return out
		}).
		Filter("drop-w0", func(q any) bool { return q.(string) != "w0" }).
		Map("tag", func(q any) any { return core.Record{q, int64(1)} }).
		ReduceBy("count",
			func(q any) any { return q.(core.Record)[0] },
			func(a, b any) any {
				ar, br := a.(core.Record), b.(core.Record)
				return core.Record{ar[0], ar[1].(int64) + br[1].(int64)}
			})
	sink := counts.CollectSink()
	p := b.Plan()
	pinPlan(p, platform)
	return p, sink
}

func TestFusedFig9TaskEquivalentOnEveryEngine(t *testing.T) {
	refPlan, refSink := fig9Pipeline(fastCtx(t), "")
	want := canonical(t, interpretPlan(t, refPlan, refSink))
	for _, platform := range crossCheckPlatforms {
		t.Run(platformName(platform), func(t *testing.T) {
			ctx := fastCtx(t)
			plan, sink := fig9Pipeline(ctx, platform)
			checkAgainstInterpreter(t, ctx, plan, sink, want)
		})
	}
}
