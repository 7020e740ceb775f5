// Package platformtest provides a conformance suite for platform drivers:
// every engine must implement the RHEEM operator semantics identically, so
// the same battery of operator tests runs against each driver. Engine tests
// call Run with their driver plus the set of kinds the platform supports.
package platformtest

import (
	"fmt"
	"sort"
	"testing"

	"rheem/internal/core"
)

// CollectionChannel wraps quanta in a collection channel.
func CollectionChannel(data ...any) *core.Channel {
	return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data)))
}

// RunOp executes a single operator on the driver with the given main-input
// channels and returns the materialized output quanta.
func RunOp(t *testing.T, d core.Driver, op *core.Operator, inputs ...*core.Channel) []any {
	t.Helper()
	out, _, err := RunOpErr(d, op, inputs...)
	if err != nil {
		t.Fatalf("%s on %s: %v", op, d.Name(), err)
	}
	return out
}

// RunOpErr is RunOp returning errors and stats instead of failing the test.
func RunOpErr(d core.Driver, op *core.Operator, inputs ...*core.Channel) ([]any, *core.StageStats, error) {
	stage := &core.Stage{
		ID:           1,
		Platform:     d.Name(),
		Ops:          []*core.Operator{op},
		TerminalOuts: []*core.Operator{op},
	}
	in := core.NewInputs()
	for port, ch := range inputs {
		in.SetMain(op, port, ch)
	}
	outs, stats, err := d.Execute(stage, in)
	if err != nil {
		return nil, nil, err
	}
	ch := outs[op]
	if ch == nil {
		return nil, stats, nil
	}
	data, err := channelData(ch)
	return data, stats, err
}

// RunChain executes a linear chain of operators as one stage, feeding
// inputs into the first operator, and returns the last operator's output.
func RunChain(t *testing.T, d core.Driver, ops []*core.Operator, inputs ...*core.Channel) []any {
	t.Helper()
	// Wire inputs through a throwaway plan so Inputs()/Outputs() resolve.
	p := core.NewPlan("chain")
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	last := ops[len(ops)-1]
	stage := &core.Stage{ID: 1, Platform: d.Name(), Ops: ops, TerminalOuts: []*core.Operator{last}}
	in := core.NewInputs()
	for port, ch := range inputs {
		in.SetMain(ops[0], port, ch)
	}
	outs, _, err := d.Execute(stage, in)
	if err != nil {
		t.Fatalf("chain on %s: %v", d.Name(), err)
	}
	data, err := channelData(outs[last])
	if err != nil {
		t.Fatalf("chain output: %v", err)
	}
	return data
}

func channelData(ch *core.Channel) ([]any, error) {
	switch p := ch.Payload.(type) {
	case *core.SliceDataset:
		return p.Data, nil
	case core.Dataset:
		return core.Materialize(p), nil
	case string:
		segs, err := core.ReadQuantaFile(p)
		return core.SegmentRows(segs), err
	default:
		// Engine-native payloads expose Collect() (RDDs, datasets) or
		// Rows() (table references).
		if c, ok := p.(interface{ Collect() []any }); ok {
			return c.Collect(), nil
		}
		if r, ok := p.(interface{ Rows() ([]any, error) }); ok {
			return r.Rows()
		}
		return nil, nil
	}
}

// SortedInts extracts and sorts int64 results for order-insensitive checks.
func SortedInts(t *testing.T, data []any) []int64 {
	t.Helper()
	out := make([]int64, 0, len(data))
	for _, q := range data {
		switch v := q.(type) {
		case int64:
			out = append(out, v)
		case int:
			out = append(out, int64(v))
		case float64:
			out = append(out, int64(v))
		default:
			t.Fatalf("quantum %T is not integral", q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedStrings formats and sorts results for order-insensitive checks.
func SortedStrings(data []any) []string {
	out := make([]string, len(data))
	for i, q := range data {
		out[i] = stringOf(q)
	}
	sort.Strings(out)
	return out
}

func stringOf(q any) string {
	if s, ok := q.(string); ok {
		return s
	}
	return fmt.Sprintf("%T:%v", q, q)
}
