package driverutil

import (
	"sync"
	"sync/atomic"

	"rheem/internal/core"
)

// Vectorized fused kernels. CompileVector layers a columnar execution plan
// over a compiled row kernel: the longest prefix of the chain whose steps
// are declarative — Params.Where filters, UDF.MapExpr numeric maps, and
// projections — compiles to per-column tight loops driven by a selection
// vector, and everything after the first opaque UDF runs through the row
// kernel's tail. A chain terminated by an absorbed declarative aggregation
// (FusedChain.Agg) additionally feeds its survivors straight into grouped
// accumulators (core.AggState) without materializing them. At run time each
// partition is converted to a core.ColumnBatch — building only the columns
// the compiled plan reads — and partitions that cannot batch (mixed quantum
// shapes) or whose columns don't satisfy a step's type/validity requirements
// fall back to the row kernel wholesale, so vectorized execution is always
// observationally identical to row execution — same outputs, same
// per-operator cardinalities, same panics. Batch-native inputs (column
// batches decoded off the wire) enter through RunSegments/RunSegmentsAgg,
// which execute them without a row round-trip under the same ladder.

// vecStep is one vectorizable chain operator.
type vecStep struct {
	kind core.Kind
	pred *core.Predicate // filter
	expr *core.MapExpr   // map
	cols []int           // project (nil = identity)
	op   *core.Operator
}

// vecStats counts what the vectorized path did at run time. Tails share
// their parent's stats so relstore's pushdown split still accumulates into
// the kernel runChain observes.
type vecStats struct {
	batches    int64
	rows       int64
	fallbacks  int64
	aggBatches int64
	aggRows    int64
}

// VectorKernel wraps a row FusedKernel with a vectorized prefix. It is the
// unit engines execute: Run prefers the column path and degrades to the row
// kernel whenever anything about the partition makes columns unsafe.
type VectorKernel struct {
	row   *FusedKernel
	vec   []vecStep
	agg   *core.ReduceExpr // absorbed chain-terminating aggregation, if any
	need  []int            // original columns the plan reads; nil = all
	stats *vecStats
}

// CompileVector compiles the vectorizable prefix of a fused chain over the
// already-compiled row kernel. agg, when non-nil, is the chain's absorbed
// reduce-by (FusedChain.Agg); its ReduceExpr terminates the kernel's
// survivors in grouped accumulators. CompileVector always succeeds; a chain
// with no recognizable declarative steps simply has an empty prefix and runs
// on the row kernel unchanged.
func CompileVector(ops []*core.Operator, agg *core.Operator, row *FusedKernel) *VectorKernel {
	k := &VectorKernel{row: row, stats: &vecStats{}}
	if agg != nil {
		k.agg = agg.UDF.ReduceExpr
	}
	for _, op := range ops {
		st, ok := vecStepOf(op)
		if !ok {
			break
		}
		k.vec = append(k.vec, st)
	}
	k.need = vecNeed(k.vec, len(ops), k.agg)
	return k
}

// vecStepOf recognizes the declarative operator forms the column loops can
// execute. A filter carrying an opaque UDF.Pred is not vectorizable even if
// it also has a Where: the row path prefers the UDF (see PredOf), and the
// two paths must agree.
func vecStepOf(op *core.Operator) (vecStep, bool) {
	st := vecStep{kind: op.Kind, op: op}
	switch op.Kind {
	case core.KindFilter:
		if op.UDF.Pred != nil || op.Params.Where == nil {
			return st, false
		}
		st.pred = op.Params.Where
	case core.KindMap:
		if op.UDF.MapExpr == nil {
			return st, false
		}
		st.expr = op.UDF.MapExpr
	case core.KindProject:
		st.cols = op.Params.Columns
	default:
		return st, false
	}
	return st, true
}

// vecNeed statically computes which original input columns the vectorized
// plan can read, simulating plan()'s projection remapping. Emission needs no
// built columns at all — ColumnBatch.value reads clean columns from the
// original boxed rows — so the need list is just the filter and map columns,
// plus the aggregation's group and agg columns when an absorbed aggregation
// consumes the full vectorized prefix. nil means every column may be read
// (a projection the static pass could not resolve). Under-approximation is
// impossible by construction: the run-time plan bounds-checks every column
// and nil-guards unbuilt ones, falling back to the row kernel.
func vecNeed(vec []vecStep, chainLen int, agg *core.ReduceExpr) []int {
	if len(vec) == 0 {
		return nil
	}
	seen := map[int]bool{}
	need := []int{}
	add := func(c int) {
		if c >= 0 && !seen[c] {
			seen[c] = true
			need = append(need, c)
		}
	}
	var cur []int // current projection: nil = identity
	mapTo := func(c int) (int, bool) {
		if c < 0 {
			return 0, false
		}
		if cur == nil {
			return c, true
		}
		if c >= len(cur) {
			return 0, false
		}
		return cur[c], true
	}
	for i := range vec {
		st := &vec[i]
		switch st.kind {
		case core.KindFilter:
			if st.pred.Col != core.WholeQuantum {
				if p, ok := mapTo(st.pred.Col); ok {
					add(p)
				}
			}
		case core.KindMap:
			if st.expr.Col != core.WholeQuantum {
				if p, ok := mapTo(st.expr.Col); ok {
					add(p)
				}
			}
		case core.KindProject:
			if st.cols == nil {
				continue
			}
			next := make([]int, len(st.cols))
			for j, c := range st.cols {
				p, ok := mapTo(c)
				if !ok {
					return nil // can't bound what later steps read
				}
				next[j] = p
			}
			cur = next
		}
	}
	if agg != nil && len(vec) == chainLen {
		for _, c := range agg.GroupCols {
			if p, ok := mapTo(c); ok {
				add(p)
			}
		}
		for _, a := range agg.Aggs {
			if a.Op == core.AggCount {
				continue
			}
			if p, ok := mapTo(a.Col); ok {
				add(p)
			}
		}
	}
	return need
}

// VecLen returns the number of chain steps compiled to column loops.
func (k *VectorKernel) VecLen() int { return len(k.vec) }

// Len returns the number of steps (narrow chain operators) in the kernel.
func (k *VectorKernel) Len() int { return k.row.Len() }

// Agg returns the absorbed chain-terminating aggregation (nil for pure
// narrow chains). Engines that see a non-nil Agg must run the kernel through
// RunAgg/RunSegmentsAgg and finalize the state themselves.
func (k *VectorKernel) Agg() *core.ReduceExpr { return k.agg }

// SetSniff attaches an observer to step i (see FusedKernel.SetSniff). A
// sniffer on a vectorized step disables the column path for the whole
// kernel — the sniffer contract is one call per emitted quantum, which only
// the row kernel provides.
func (k *VectorKernel) SetSniff(i int, fn func(any)) { k.row.SetSniff(i, fn) }

// Sniffed reports whether any step carries a sniffer.
func (k *VectorKernel) Sniffed() bool { return k.row.Sniffed() }

// StepSniff returns step i's observer (nil when unset).
func (k *VectorKernel) StepSniff(i int) func(any) { return k.row.StepSniff(i) }

// Tail returns a kernel for steps[from:], preserving sniffs, the absorbed
// aggregation, and sharing run-time stats. relstore uses it after pushing
// the head filter into an index scan. The need list is kept as-is: it can
// only over-approximate for the shorter chain, which is safe.
func (k *VectorKernel) Tail(from int) *VectorKernel {
	t := &VectorKernel{row: k.row.Tail(from), agg: k.agg, need: k.need, stats: k.stats}
	if from <= len(k.vec) {
		t.vec = k.vec[from:]
	}
	return t
}

// Stats returns the kernel's accumulated vectorized-execution counters.
func (k *VectorKernel) Stats() (batches, rows, fallbacks, aggBatches, aggRows int64) {
	return atomic.LoadInt64(&k.stats.batches),
		atomic.LoadInt64(&k.stats.rows),
		atomic.LoadInt64(&k.stats.fallbacks),
		atomic.LoadInt64(&k.stats.aggBatches),
		atomic.LoadInt64(&k.stats.aggRows)
}

// prefixSniffed reports whether any vectorized step carries a sniffer.
func (k *VectorKernel) prefixSniffed() bool {
	for i := range k.vec {
		if k.row.StepSniff(i) != nil {
			return true
		}
	}
	return false
}

// Selection vectors and intermediate row buffers are pooled: chains run once
// per partition batch, and the buffers die at batch end, which is exactly
// the churn sync.Pool amortizes.
var selPool = sync.Pool{New: func() any { return new([]int) }}
var rowBufPool = sync.Pool{New: func() any { return new([]any) }}

// getSel returns a pooled selection buffer with capacity n. The buffer is
// never nil, even at n == 0: a filter that keeps nothing must hand on an
// empty selection, and a nil one would mean "all rows" to the next step.
func getSel(n int) *[]int {
	sb := selPool.Get().(*[]int)
	if *sb == nil || cap(*sb) < n {
		*sb = make([]int, 0, n)
	}
	return sb
}

func putSel(sb *[]int) {
	if sb != nil {
		selPool.Put(sb)
	}
}

func getRowBuf(n int) *[]any {
	rb := rowBufPool.Get().(*[]any)
	if cap(*rb) < n {
		*rb = make([]any, 0, n)
	}
	return rb
}

func putRowBuf(rb *[]any) {
	if rb == nil {
		return
	}
	s := (*rb)[:cap(*rb)]
	for i := range s {
		s[i] = nil // don't pin quanta from the pool
	}
	*rb = s[:0]
	rowBufPool.Put(rb)
}

// plan resolves each vectorized step against a concrete batch: the physical
// column every filter/map reads (projections remap indices), the final
// output projection, and whether every step's type/validity requirements
// hold. ok=false sends the whole partition down the row kernel, which
// reproduces the row path's exact behaviour — including its panics — for
// data the column loops can't honestly execute.
func (k *VectorKernel) plan(b *core.ColumnBatch) (phys []int, final []int, ok bool) {
	phys = make([]int, len(k.vec))
	cur := []int(nil) // nil = identity over the batch's columns
	width := b.Width()
	mapped := func(c int) (int, bool) {
		if c < 0 || c >= width {
			return 0, false
		}
		if cur == nil {
			return c, true
		}
		return cur[c], true
	}
	for i := range k.vec {
		st := &k.vec[i]
		phys[i] = -1
		switch st.kind {
		case core.KindFilter:
			c := st.pred.Col
			if c == core.WholeQuantum {
				if !b.Scalar() {
					return nil, nil, false
				}
				phys[i] = 0
			} else {
				if b.Scalar() {
					return nil, nil, false
				}
				p, ok := mapped(c)
				if !ok {
					return nil, nil, false
				}
				phys[i] = p
			}
			if !b.VecFilterOK(phys[i], st.pred) {
				return nil, nil, false
			}
		case core.KindMap:
			c := st.expr.Col
			if c == core.WholeQuantum {
				if !b.Scalar() {
					return nil, nil, false
				}
				phys[i] = 0
			} else {
				if b.Scalar() {
					return nil, nil, false
				}
				p, ok := mapped(c)
				if !ok {
					return nil, nil, false
				}
				phys[i] = p
			}
			if !b.VecMapOK(phys[i], st.expr) {
				return nil, nil, false
			}
			// A projection can alias one physical column under several
			// output columns; an in-place map would then rewrite all of
			// them, where the row path rewrites exactly one field.
			if cur != nil {
				refs := 0
				for _, p := range cur {
					if p == phys[i] {
						refs++
					}
				}
				if refs > 1 {
					return nil, nil, false
				}
			}
		case core.KindProject:
			if st.cols == nil {
				continue // identity
			}
			if b.Scalar() {
				return nil, nil, false
			}
			next := make([]int, len(st.cols))
			for j, c := range st.cols {
				p, ok := mapped(c)
				if !ok {
					return nil, nil, false
				}
				next[j] = p
			}
			cur = next
			width = len(cur)
		}
	}
	return phys, cur, true
}

// mapTargets returns the physical columns the map steps rewrite in place.
func (k *VectorKernel) mapTargets(phys []int) []int {
	var mt []int
	for i := range k.vec {
		if k.vec[i].kind == core.KindMap {
			mt = append(mt, phys[i])
		}
	}
	return mt
}

// runSteps executes the planned vectorized steps over b, ticking counts.
// The returned selection (nil = all rows, in order) is backed by the
// returned pooled buffer; the caller recycles it with putSel once the
// selection is dead.
func (k *VectorKernel) runSteps(b *core.ColumnBatch, phys []int, counts []int64) (sel []int, sb *[]int, live int) {
	live = b.Len()
	for i := range k.vec {
		st := &k.vec[i]
		switch st.kind {
		case core.KindFilter:
			nb := getSel(live)
			ns := b.FilterSel(phys[i], st.pred, sel, (*nb)[:0])
			*nb = ns
			putSel(sb)
			sel, sb = ns, nb
			live = len(ns)
		case core.KindMap:
			b.ApplyNumExpr(phys[i], st.expr, sel)
		}
		if counts != nil {
			counts[i] += int64(live)
		}
	}
	return sel, sb, live
}

// Run executes the kernel over one partition. The contract is identical to
// FusedKernel.Run: counts[i] accumulates the i-th step's emitted quanta and
// buf, when non-nil, is the reused output buffer. The column path engages
// only when it can reproduce row execution exactly; every other partition
// degrades to the row kernel.
func (k *VectorKernel) Run(part []any, counts []int64, buf []any) []any {
	if len(k.vec) == 0 || len(part) == 0 || core.ColumnarDisabled() || k.prefixSniffed() {
		return k.row.Run(part, counts, buf)
	}
	b, ok := core.BatchFromRowsNeeding(part, k.need)
	if !ok {
		atomic.AddInt64(&k.stats.fallbacks, 1)
		return k.row.Run(part, counts, buf)
	}
	phys, final, ok := k.plan(b)
	if !ok {
		atomic.AddInt64(&k.stats.fallbacks, 1)
		b.Recycle()
		return k.row.Run(part, counts, buf)
	}
	atomic.AddInt64(&k.stats.batches, 1)
	atomic.AddInt64(&k.stats.rows, int64(len(part)))

	sel, sb, live := k.runSteps(b, phys, counts)
	if len(k.vec) == k.row.Len() {
		out := buf
		if out == nil {
			out = make([]any, 0, live)
		}
		out = b.EmitRows(out, sel, final)
		putSel(sb)
		b.Recycle()
		return out
	}
	mb := getRowBuf(live)
	mid := b.EmitRows((*mb)[:0], sel, final)
	*mb = mid
	putSel(sb)
	b.Recycle()
	tailCounts := counts
	if counts != nil {
		tailCounts = counts[len(k.vec):]
	}
	out := k.row.Tail(len(k.vec)).Run(mid, tailCounts, buf)
	putRowBuf(mb)
	return out
}

// RunSegments executes the kernel over one partition carried as segments,
// appending survivors to buf (allocated when nil). Row segments take the
// Run path; column-batch segments execute natively, with the same fallback
// ladder per batch. Decoded batches may be shared with other consumers
// (cached partitions, re-read spill files), so map steps copy-on-write and
// nothing mutates them in place.
func (k *VectorKernel) RunSegments(segs []core.Segment, counts []int64, buf []any) []any {
	out := buf
	if out == nil {
		n := 0
		for _, s := range segs {
			n += s.Len()
		}
		out = make([]any, 0, n)
	}
	for i := range segs {
		if segs[i].Batch == nil {
			out = k.Run(segs[i].Rows, counts, out)
			continue
		}
		out = k.runBatch(segs[i].Batch, counts, out)
	}
	return out
}

// runBatch executes the kernel over one shared decoded column batch,
// appending survivors to out.
func (k *VectorKernel) runBatch(b *core.ColumnBatch, counts []int64, out []any) []any {
	if b.Len() == 0 {
		return out
	}
	rowRun := func() []any {
		rb := getRowBuf(b.Len())
		rows := b.AppendRows((*rb)[:0])
		*rb = rows
		out = k.row.Run(rows, counts, out)
		putRowBuf(rb)
		return out
	}
	if len(k.vec) == 0 || core.ColumnarDisabled() || k.prefixSniffed() {
		return rowRun()
	}
	phys, final, ok := k.plan(b)
	if !ok {
		atomic.AddInt64(&k.stats.fallbacks, 1)
		return rowRun()
	}
	if mt := k.mapTargets(phys); len(mt) > 0 {
		b = b.CloneForWrite(mt)
	}
	atomic.AddInt64(&k.stats.batches, 1)
	atomic.AddInt64(&k.stats.rows, int64(b.Len()))
	sel, sb, live := k.runSteps(b, phys, counts)
	if len(k.vec) == k.row.Len() {
		out = b.EmitRows(out, sel, final)
		putSel(sb)
		return out
	}
	mb := getRowBuf(live)
	mid := b.EmitRows((*mb)[:0], sel, final)
	*mb = mid
	putSel(sb)
	tailCounts := counts
	if counts != nil {
		tailCounts = counts[len(k.vec):]
	}
	out = k.row.Tail(len(k.vec)).Run(mid, tailCounts, out)
	putRowBuf(mb)
	return out
}

// RunAgg executes the kernel over one partition and feeds every survivor
// into the grouped accumulator state instead of materializing them. counts
// covers the narrow steps only; the caller accounts the aggregation's own
// output cardinality after Finalize. The caller must only use RunAgg when
// Agg() is non-nil.
func (k *VectorKernel) RunAgg(part []any, counts []int64, st *core.AggState) {
	if len(k.vec) == 0 || len(part) == 0 || core.ColumnarDisabled() || k.prefixSniffed() {
		k.rowAgg(part, counts, st)
		return
	}
	b, ok := core.BatchFromRowsNeeding(part, k.need)
	if !ok {
		atomic.AddInt64(&k.stats.fallbacks, 1)
		k.rowAgg(part, counts, st)
		return
	}
	k.vecAgg(b, part, counts, st, false)
}

// RunSegmentsAgg is RunAgg over a segment-carried partition: column-batch
// segments absorb natively (copy-on-write for map steps), row segments take
// the RunAgg path.
func (k *VectorKernel) RunSegmentsAgg(segs []core.Segment, counts []int64, st *core.AggState) {
	for i := range segs {
		b := segs[i].Batch
		if b == nil {
			k.RunAgg(segs[i].Rows, counts, st)
			continue
		}
		if b.Len() == 0 {
			continue
		}
		if len(k.vec) == 0 || core.ColumnarDisabled() || k.prefixSniffed() {
			rb := getRowBuf(b.Len())
			rows := b.AppendRows((*rb)[:0])
			*rb = rows
			k.rowAgg(rows, counts, st)
			putRowBuf(rb)
			continue
		}
		k.vecAgg(b, nil, counts, st, true)
	}
}

// rowAgg is the exact row path: the full narrow chain, then row-at-a-time
// absorption.
func (k *VectorKernel) rowAgg(part []any, counts []int64, st *core.AggState) {
	rb := getRowBuf(len(part))
	out := k.row.Run(part, counts, (*rb)[:0])
	*rb = out
	st.AbsorbRows(out)
	putRowBuf(rb)
}

// vecAgg runs the planned vectorized steps over b and absorbs the
// survivors. rows, when non-nil, are the partition's boxed originals for
// whole-batch fallback; shared marks b as potentially multi-consumer
// (decoded wire batches), making map steps copy-on-write. The aggregation
// state is preflighted (AggState.PlanBatch) before any step runs, so a
// batch the accumulators would refuse falls back before counts tick.
func (k *VectorKernel) vecAgg(b *core.ColumnBatch, rows []any, counts []int64, st *core.AggState, shared bool) {
	fallback := func() {
		atomic.AddInt64(&k.stats.fallbacks, 1)
		if rows == nil {
			rows = b.AppendRows(nil)
		}
		if !shared {
			b.Recycle()
		}
		k.rowAgg(rows, counts, st)
	}
	phys, final, ok := k.plan(b)
	if !ok {
		fallback()
		return
	}
	full := len(k.vec) == k.row.Len()
	if full && !st.PlanBatch(b, final) {
		fallback()
		return
	}
	if shared {
		if mt := k.mapTargets(phys); len(mt) > 0 {
			b = b.CloneForWrite(mt)
		}
	}
	atomic.AddInt64(&k.stats.batches, 1)
	atomic.AddInt64(&k.stats.rows, int64(b.Len()))
	sel, sb, live := k.runSteps(b, phys, counts)
	if full && st.AbsorbBatch(b, sel, final) {
		atomic.AddInt64(&k.stats.aggBatches, 1)
		atomic.AddInt64(&k.stats.aggRows, int64(live))
		putSel(sb)
		if !shared {
			b.Recycle() // accumulators copy values out; nothing aliases the buffers
		}
		return
	}
	// Partial vectorized prefix — or, unreachably given the preflight, an
	// absorb refusal: emit the survivors and finish row-wise.
	mb := getRowBuf(live)
	mid := b.EmitRows((*mb)[:0], sel, final)
	*mb = mid
	putSel(sb)
	if !shared {
		b.Recycle()
	}
	if !full {
		tailCounts := counts
		if counts != nil {
			tailCounts = counts[len(k.vec):]
		}
		ob := getRowBuf(len(mid))
		tout := k.row.Tail(len(k.vec)).Run(mid, tailCounts, (*ob)[:0])
		*ob = tout
		st.AbsorbRows(tout)
		putRowBuf(ob)
	} else {
		st.AbsorbRows(mid)
	}
	putRowBuf(mb)
}
