package driverutil

import (
	"fmt"

	"rheem/internal/algo"
	"rheem/internal/core"
)

// Operator kernels over in-memory slices. The single-node engine applies
// them to whole datasets; partitioned engines apply them per partition
// after shuffling quanta so that co-keyed quanta share a partition.

// Combine returns the join result composer of op, defaulting to pairing the
// operands in a Record.
func Combine(op *core.Operator) func(l, r any) any {
	if op.UDF.Combine != nil {
		return op.UDF.Combine
	}
	return func(l, r any) any { return core.Record{l, r} }
}

// KeyRight returns the right-side key extractor, defaulting to the left's.
func KeyRight(op *core.Operator) func(any) any {
	if op.UDF.KeyRight != nil {
		return op.UDF.KeyRight
	}
	return op.UDF.Key
}

// PredOf returns op's filter predicate: the UDF when present, else the
// compiled declarative Where predicate.
func PredOf(op *core.Operator) (func(any) bool, error) {
	if op.UDF.Pred != nil {
		return op.UDF.Pred, nil
	}
	if op.Params.Where != nil {
		return op.Params.Where.Fn(), nil
	}
	return nil, fmt.Errorf("filter %s lacks a predicate", op)
}

// LessOf returns op's ordering, defaulting to CompareAny.
func LessOf(op *core.Operator) func(a, b any) bool {
	if op.UDF.Less != nil {
		return op.UDF.Less
	}
	return func(a, b any) bool { return core.CompareAny(a, b) < 0 }
}

// HashJoin equi-joins two slices: build a hash table over the right side,
// probe with the left.
func HashJoin(op *core.Operator, left, right []any) ([]any, error) {
	if op.UDF.Key == nil {
		return nil, fmt.Errorf("join %s lacks a key UDF", op)
	}
	keyR := KeyRight(op)
	combine := Combine(op)
	table := make(map[any][]any, len(right))
	for _, r := range right {
		k := core.GroupKey(keyR(r))
		table[k] = append(table[k], r)
	}
	var out []any
	for _, l := range left {
		for _, r := range table[core.GroupKey(op.UDF.Key(l))] {
			out = append(out, combine(l, r))
		}
	}
	return out, nil
}

// ReduceByKey folds quanta sharing a key into one quantum per key. Output
// order follows first occurrence of each key, keeping results deterministic.
// Declarative reduce expressions dispatch to the grouped accumulator kernel;
// this arm is only correct for engines that apply the operator exactly once
// over the whole dataset (an aggregation is not idempotent the way a
// re-applied combiner is, so two-phase engines branch on ReduceExpr before
// calling here).
func ReduceByKey(op *core.Operator, data []any) ([]any, error) {
	if e := op.UDF.ReduceExpr; e != nil {
		return core.AggregateRows(e, data), nil
	}
	if op.UDF.Key == nil || op.UDF.Reduce == nil {
		return nil, fmt.Errorf("reduce-by %s lacks key or reduce UDF", op)
	}
	agg := map[any]any{}
	var order []any
	for _, q := range data {
		k := core.GroupKey(op.UDF.Key(q))
		if cur, ok := agg[k]; ok {
			agg[k] = op.UDF.Reduce(cur, q)
		} else {
			agg[k] = q
			order = append(order, k)
		}
	}
	out := make([]any, len(order))
	for i, k := range order {
		out[i] = agg[k]
	}
	return out, nil
}

// GroupByKey materializes one Group per key, in first-occurrence order.
func GroupByKey(op *core.Operator, data []any) ([]any, error) {
	if op.UDF.Key == nil {
		return nil, fmt.Errorf("group-by %s lacks a key UDF", op)
	}
	groups := map[any]*core.Group{}
	var order []any
	for _, q := range data {
		orig := op.UDF.Key(q)
		k := core.GroupKey(orig)
		g, ok := groups[k]
		if !ok {
			g = &core.Group{Key: orig}
			groups[k] = g
			order = append(order, k)
		}
		g.Values = append(g.Values, q)
	}
	out := make([]any, len(order))
	for i, k := range order {
		out[i] = *groups[k]
	}
	return out, nil
}

// CoGroup pairs the groups of both sides per key into Records of
// (key, leftValues, rightValues).
func CoGroup(op *core.Operator, left, right []any) ([]any, error) {
	if op.UDF.Key == nil {
		return nil, fmt.Errorf("co-group %s lacks a key UDF", op)
	}
	keyR := KeyRight(op)
	type grp struct {
		orig any
		l, r []any
	}
	groups := map[any]*grp{}
	var order []any
	upsert := func(orig any) *grp {
		k := core.GroupKey(orig)
		g, ok := groups[k]
		if !ok {
			g = &grp{orig: orig}
			groups[k] = g
			order = append(order, k)
		}
		return g
	}
	for _, q := range left {
		g := upsert(op.UDF.Key(q))
		g.l = append(g.l, q)
	}
	for _, q := range right {
		g := upsert(keyR(q))
		g.r = append(g.r, q)
	}
	out := make([]any, len(order))
	for i, k := range order {
		g := groups[k]
		out[i] = core.Record{g.orig, g.l, g.r}
	}
	return out, nil
}

// Distinct removes duplicates (by GroupKey identity), keeping first
// occurrences in order.
func Distinct(data []any) []any {
	seen := map[any]bool{}
	var out []any
	for _, q := range data {
		k := core.GroupKey(q)
		if !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// Intersect emits the distinct quanta present on both sides.
func Intersect(left, right []any) []any {
	rset := make(map[any]bool, len(right))
	for _, q := range right {
		rset[core.GroupKey(q)] = true
	}
	seen := map[any]bool{}
	var out []any
	for _, q := range left {
		k := core.GroupKey(q)
		if rset[k] && !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// Sort orders data by the operator's ordering.
func Sort(op *core.Operator, data []any) []any {
	out := make([]any, len(data))
	copy(out, data)
	core.SortAny(out, LessOf(op))
	return out
}

// Reduce folds all quanta into a single one; an empty input produces an
// empty output.
func Reduce(op *core.Operator, data []any) ([]any, error) {
	if op.UDF.Reduce == nil {
		return nil, fmt.Errorf("reduce %s lacks a reduce UDF", op)
	}
	if len(data) == 0 {
		return nil, nil
	}
	acc := data[0]
	for _, q := range data[1:] {
		acc = op.UDF.Reduce(acc, q)
	}
	return []any{acc}, nil
}

// Sample draws a sample per the operator's parameters. round distinguishes
// successive draws of loop-resident Sample operators.
func Sample(op *core.Operator, data []any, round int) ([]any, error) {
	seed := op.Params.Seed
	if seed == 0 {
		seed = 1
	}
	seed += int64(round) * 7919
	size := op.Params.SampleSize
	switch op.Params.SampleMethod {
	case "", "bernoulli":
		frac := op.Params.SampleFraction
		if size > 0 {
			if len(data) == 0 {
				return nil, nil
			}
			// An absolute size request falls back to reservoir sampling,
			// which honours exact sizes.
			return algo.ReservoirSample(data, size, seed), nil
		}
		return algo.BernoulliSample(data, frac, seed), nil
	case "reservoir":
		if size <= 0 {
			size = int(float64(len(data)) * op.Params.SampleFraction)
		}
		return algo.ReservoirSample(data, size, seed), nil
	case "shuffle-first":
		if size <= 0 {
			size = int(float64(len(data)) * op.Params.SampleFraction)
		}
		// The permutation is seeded by the operator's base seed so successive
		// rounds walk successive windows of one shuffle.
		s := algo.NewShuffleFirstSample(data, op.Params.Seed+1)
		return s.Draw(size, round), nil
	default:
		return nil, fmt.Errorf("sample %s: unknown method %q", op, op.Params.SampleMethod)
	}
}

// IEJoinSlices runs the inequality join kernel for op.
func IEJoinSlices(op *core.Operator, left, right []any) ([]any, error) {
	if op.UDF.LeftNums == nil || op.UDF.RightNums == nil {
		return nil, fmt.Errorf("iejoin %s lacks attribute extractors", op)
	}
	combine := Combine(op)
	var out []any
	algo.IEJoin(left, right, op.UDF.LeftNums, op.UDF.RightNums, op.Params.IEOp1, op.Params.IEOp2,
		func(l, r any) { out = append(out, combine(l, r)) })
	return out, nil
}

// FormatOf returns op's text formatter, defaulting to fmt.Sprint.
func FormatOf(op *core.Operator) func(any) string {
	if op.UDF.Format != nil {
		return op.UDF.Format
	}
	return func(q any) string { return fmt.Sprint(q) }
}
