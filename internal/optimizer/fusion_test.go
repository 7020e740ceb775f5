package optimizer

import (
	"math"
	"testing"

	"rheem/internal/core"
)

// narrowPlan builds source(n) -> map -> filter -> map -> map -> sink: a
// pipeline the engines execute as one fused kernel.
func narrowPlan(n int) *core.Plan {
	p := core.NewPlan("narrow")
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = data
	m1 := p.NewOperator(core.KindMap, "m1")
	m1.UDF.Map = func(q any) any { return q }
	f := p.NewOperator(core.KindFilter, "f")
	f.UDF.Pred = func(q any) bool { return q.(int64)%2 == 0 }
	m2 := p.NewOperator(core.KindMap, "m2")
	m2.UDF.Map = func(q any) any { return q }
	m3 := p.NewOperator(core.KindMap, "m3")
	m3.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m1, f, m2, m3, sink)
	return p
}

// TestFusionDiscountLowersPlanCost checks that a same-platform narrow run
// is priced as one dispatch. With the plan pinned to spark, raising every
// narrow operator's fixed overhead by x must raise the plan cost by x once
// — for the chain head, whose producer is a source — and not once per
// operator: the three downstream operators ride the head's kernel.
func TestFusionDiscountLowersPlanCost(t *testing.T) {
	env := newTestEnv(t)
	pinned := func() *core.Plan {
		p := narrowPlan(5000)
		for _, op := range p.Operators() {
			op.TargetPlatform = "spark"
		}
		return p
	}
	base := env.opts()
	base.Costs = DefaultCostTable(env.reg.Mappings.Platforms())
	basePlan, err := Optimize(pinned(), base)
	if err != nil {
		t.Fatal(err)
	}

	const extra = 10.0 // fixed-overhead units added per narrow operator
	raised := base
	raised.Costs = base.Costs.Clone()
	narrow := 0
	for op, a := range basePlan.Assignments {
		if !core.FusibleKind(op.Kind) {
			continue
		}
		narrow++
		for _, step := range a.Alt.Steps {
			key := step.CostKeyOrName()
			params, ok := base.Costs.Ops[key]
			if !ok {
				params = defaultParamsFor(key)
			}
			params.FixedOverhead += extra
			raised.Costs.Ops[key] = params
		}
	}
	if narrow != 4 {
		t.Fatalf("expected 4 narrow assignments, got %d", narrow)
	}
	raisedPlan, err := Optimize(pinned(), raised)
	if err != nil {
		t.Fatal(err)
	}

	perOp := extra * base.Costs.Platforms["spark"].MsPerFixed
	delta := raisedPlan.Cost.LowMs - basePlan.Cost.LowMs
	if math.Abs(delta-perOp) > 1e-6 {
		t.Fatalf("raising 4 fused narrow ops' overhead by %g ms each moved the plan cost by %g ms, want %g (one dispatch)",
			perOp, delta, perOp)
	}

	// The discount only applies to same-platform producer/consumer pairs, so
	// left free it must pull the whole narrow chain onto a single platform.
	freePlan, err := Optimize(narrowPlan(5000), env.opts())
	if err != nil {
		t.Fatal(err)
	}
	if platforms := freePlan.Platforms(); len(platforms) != 1 {
		t.Fatalf("narrow chain split across platforms: %v", platforms)
	}
}

func TestFusedStepOverheadMs(t *testing.T) {
	ct := DefaultCostTable([]string{"spark"})
	alt := core.Alternative{Platform: "spark", Steps: []core.ExecOpTemplate{{Name: "spark.map"}}}
	got := ct.FusedStepOverheadMs(alt)
	// spark.map defaults to FixedOverhead 0.2 at MsPerFixed 6.
	if want := 0.2 * 6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("FusedStepOverheadMs = %v, want %v", got, want)
	}
	// Unknown platforms fall back to unit costs rather than zeroing the
	// discount silently.
	other := core.Alternative{Platform: "nope", Steps: []core.ExecOpTemplate{{Name: "nope.map"}}}
	if got := ct.FusedStepOverheadMs(other); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("fallback overhead = %v, want 0.2", got)
	}
}
