package spark

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
)

// Platform is the platform name this driver registers under.
const Platform = "spark"

// Config tunes the engine's parallelism and its simulated cluster
// scheduling overheads. The defaults are scaled down (roughly 20x) from
// typical on-premise cluster latencies so laptop-scale experiments keep the
// paper's cost shapes. The overhead fields treat 0 as "use the default";
// pass any negative value (e.g. NoOverheadMs) for a genuinely overhead-free
// configuration.
type Config struct {
	// Parallelism is the worker pool width and default partition count.
	// Defaults to the number of CPUs.
	Parallelism int
	// ContextStartupMs is paid once, on the driver's first job (cluster
	// context boot). Default 150; negative means none.
	ContextStartupMs float64
	// JobStartupMs is paid per dispatched job (stage execution). Default 12;
	// negative means none.
	JobStartupMs float64
	// ShuffleLatencyMs is paid per wide dependency (shuffle barrier).
	// Default 4; negative means none.
	ShuffleLatencyMs float64
}

// NoOverheadMs is the sentinel for "this overhead is really zero" in Config
// fields whose zero value means "use the default".
const NoOverheadMs = -1

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
		if c.Parallelism < 4 {
			c.Parallelism = 4 // partitions interleave when the host is smaller
		}
	}
	c.ContextStartupMs = defaultMs(c.ContextStartupMs, 150)
	c.JobStartupMs = defaultMs(c.JobStartupMs, 12)
	c.ShuffleLatencyMs = defaultMs(c.ShuffleLatencyMs, 4)
	return c
}

// defaultMs resolves an overhead field: 0 selects the default, a negative
// sentinel selects a true zero.
func defaultMs(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// Driver is the spark platform driver.
type Driver struct {
	Conf Config
	DFS  *dfs.Store

	mu     sync.Mutex
	booted bool
}

// New creates a spark driver with the given DFS (optional) and defaults.
func New(store *dfs.Store) *Driver { return NewWithConfig(store, Config{}) }

// NewWithConfig creates a spark driver with an explicit configuration.
func NewWithConfig(store *dfs.Store, conf Config) *Driver {
	return &Driver{Conf: conf.withDefaults(), DFS: store}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// StartupCostMs implements core.StartupCoster: the optimizer charges the
// context boot before first use and the per-job latency afterwards.
func (d *Driver) StartupCostMs() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.booted {
		return d.Conf.ContextStartupMs + d.Conf.JobStartupMs
	}
	return d.Conf.JobStartupMs
}

// RDDChannel is Spark's native channel: materialized in-memory partitions.
var RDDChannel = core.ChannelDescriptor{Name: "rdd", Platform: Platform, Reusable: true}

// CachedRDDChannel marks an explicitly cached RDD: data at rest, eligible
// as a progressive-optimization checkpoint.
var CachedRDDChannel = core.ChannelDescriptor{Name: "rdd-cached", Platform: Platform, Reusable: true, AtRest: true}

// ChannelDescriptors implements core.Driver.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	out := []core.ChannelDescriptor{RDDChannel, CachedRDDChannel}
	if d.DFS != nil {
		out = append(out, core.ChannelDescriptor{Name: "dfs", Reusable: true, AtRest: true})
	}
	return out
}

// Conversions implements core.Driver: the SparkParallelize / SparkCollect /
// SparkCache conversion operators of the paper, plus DFS load/save.
func (d *Driver) Conversions() []*core.Conversion {
	convs := []*core.Conversion{
		{
			Name: "spark.parallelize", From: "collection", To: "rdd",
			FixedCostMs: 3, PerQuantumMs: 0.0008,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				data, err := driverutil.ChannelSlice(in)
				if err != nil {
					return nil, err
				}
				r := Partition(data, d.Conf.Parallelism)
				return core.NewChannel(RDDChannel, r, int64(len(data))), nil
			},
		},
		{
			Name: "spark.collect", From: "rdd", To: "collection",
			FixedCostMs: 2, PerQuantumMs: 0.0008,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				r, ok := in.Payload.(*RDD)
				if !ok {
					return nil, fmt.Errorf("spark.collect: payload %T", in.Payload)
				}
				data := r.Collect()
				return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
			},
		},
		{
			Name: "spark.cache", From: "rdd", To: "rdd-cached",
			FixedCostMs: 1, PerQuantumMs: 0.0002,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				r, ok := in.Payload.(*RDD)
				if !ok {
					return nil, fmt.Errorf("spark.cache: payload %T", in.Payload)
				}
				r.Cached = true
				return core.NewChannel(CachedRDDChannel, r, in.Card), nil
			},
		},
		{
			Name: "spark.uncache", From: "rdd-cached", To: "rdd",
			FixedCostMs: 0.1, PerQuantumMs: 0,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				return core.NewChannel(RDDChannel, in.Payload, in.Card), nil
			},
		},
	}
	if d.DFS != nil {
		convs = append(convs,
			&core.Conversion{
				Name: "spark.dfs-load", From: "dfs", To: "rdd",
				FixedCostMs: 6, PerQuantumMs: 0.002,
				Convert: func(in *core.Channel) (*core.Channel, error) {
					r, err := d.loadDFSQuanta(in.Payload.(string))
					if err != nil {
						return nil, err
					}
					return core.NewChannel(RDDChannel, r, r.Count()), nil
				},
			},
			&core.Conversion{
				Name: "spark.dfs-save", From: "rdd", To: "dfs",
				FixedCostMs: 8, PerQuantumMs: 0.003,
				Convert: func(in *core.Channel) (*core.Channel, error) {
					r, ok := in.Payload.(*RDD)
					if !ok {
						return nil, fmt.Errorf("spark.dfs-save: payload %T", in.Payload)
					}
					name := fmt.Sprintf("spill/spark-%p.jsonl", in)
					if err := writeDFSQuanta(d.DFS, name, r.Collect()); err != nil {
						return nil, err
					}
					return core.NewChannel(core.ChannelDescriptor{Name: "dfs", Reusable: true, AtRest: true}, dfs.Scheme+name, in.Card), nil
				},
			},
		)
	}
	return convs
}

// RegisterMappings implements core.Driver.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	one := func(k core.Kind, name string) {
		r.Register(k, core.Alternative{Platform: Platform, Steps: []core.ExecOpTemplate{{
			Name: name, Platform: Platform, Kind: k,
			In: []string{"rdd", "rdd-cached"}, Out: "rdd",
		}}})
	}
	one(core.KindCollectionSource, "spark.collection-source")
	one(core.KindTextFileSource, "spark.textfile-source")
	one(core.KindMap, "spark.map")
	one(core.KindFlatMap, "spark.flatmap")
	one(core.KindFilter, "spark.filter")
	one(core.KindMapPart, "spark.map-partitions")
	one(core.KindSample, "spark.sample")
	one(core.KindDistinct, "spark.distinct")
	one(core.KindSort, "spark.sort")
	one(core.KindCount, "spark.count")
	one(core.KindReduce, "spark.reduce")
	one(core.KindReduceBy, "spark.reduce-by")
	one(core.KindGroupBy, "spark.group-by")
	one(core.KindZipWithID, "spark.zip-with-id")
	one(core.KindCache, "spark.cache-op")
	one(core.KindProject, "spark.project")
	one(core.KindJoin, "spark.join")
	one(core.KindIEJoin, "spark.iejoin")
	one(core.KindCartesian, "spark.cartesian")
	one(core.KindUnion, "spark.union")
	one(core.KindIntersect, "spark.intersect")
	one(core.KindCoGroup, "spark.co-group")
	one(core.KindPageRank, "spark.pagerank")
	one(core.KindCollectionSink, "spark.collection-sink")
	one(core.KindTextFileSink, "spark.textfile-sink")
}

// Execute implements core.Driver. It charges the simulated scheduling
// overheads and interprets the stage over the RDD engine.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	d.mu.Lock()
	boot := !d.booted
	d.booted = true
	d.mu.Unlock()
	if boot {
		sleepMs(d.Conf.ContextStartupMs)
	}
	sleepMs(d.Conf.JobStartupMs)
	return driverutil.RunStage(&engine{driver: d}, stage, in)
}

func sleepMs(ms float64) {
	if ms > 0 {
		time.Sleep(time.Duration(ms * float64(time.Millisecond)))
	}
}

type engine struct {
	driver *Driver
}

func (e *engine) width() int { return e.driver.Conf.Parallelism }

// shuffleBarrier charges the per-shuffle scheduling latency.
func (e *engine) shuffleBarrier() { sleepMs(e.driver.Conf.ShuffleLatencyMs) }

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (driverutil.Data, error) {
	switch ch.Desc.Name {
	case "rdd", "rdd-cached":
		r, ok := ch.Payload.(*RDD)
		if !ok {
			return nil, fmt.Errorf("spark: channel %s payload %T", ch.Desc.Name, ch.Payload)
		}
		return r, nil
	case "collection", "file":
		// Batch-native inputs (quanta files, segment-carrying datasets) keep
		// their column batches; SplitSegments reproduces Partition's row
		// boundaries exactly, so either carrier yields identical partitions.
		if segs, ok, err := driverutil.ChannelSegments(ch); err != nil {
			return nil, err
		} else if ok {
			return NewSegRDD(driverutil.SplitSegments(segs, e.width())), nil
		}
		data, err := driverutil.ChannelSlice(ch)
		if err != nil {
			return nil, err
		}
		return Partition(data, e.width()), nil
	case "dfs":
		return e.driver.loadDFSQuanta(ch.Payload.(string))
	default:
		return nil, fmt.Errorf("spark: unsupported input channel %q", ch.Desc.Name)
	}
}

// ToChannel implements driverutil.Engine.
func (e *engine) ToChannel(op *core.Operator, d driverutil.Data) (*core.Channel, error) {
	r, ok := d.(*RDD)
	if !ok {
		return nil, fmt.Errorf("spark: %s produced %T, not an RDD", op, d)
	}
	switch op.Kind {
	case core.KindCollectionSink:
		data := r.Collect()
		return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
	case core.KindCache:
		r.Cached = true
		return core.NewChannel(CachedRDDChannel, r, r.Count()), nil
	default:
		desc := RDDChannel
		if r.Cached {
			desc = CachedRDDChannel
		}
		return core.NewChannel(desc, r, r.Count()), nil
	}
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in []driverutil.Data, bc core.BroadcastCtx, round int, counter *int64, sniff func(any)) (driverutil.Data, error) {
	ins := make([]*RDD, len(in))
	for i, d := range in {
		r, ok := d.(*RDD)
		if !ok {
			return nil, fmt.Errorf("spark: %s input %d is %T, not an RDD", op, i, d)
		}
		ins[i] = r.materialize() // per-operator kernels are row-oriented
	}
	out, err := e.apply(op, ins, round)
	if err != nil {
		return nil, err
	}
	*counter = out.Count()
	if sniff != nil {
		for _, part := range out.Parts {
			for _, q := range part {
				sniff(q)
			}
		}
	}
	return out, nil
}

// ApplyChain implements driverutil.ChainEngine: the whole fused chain runs
// as one pool dispatch — one mapPartitions over the chain instead of one
// per operator — so a stage of k narrow ops pays one scheduling round and
// zero intermediate RDD materializations.
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, in driverutil.Data, counters []*int64) (driverutil.Data, error) {
	r, ok := in.(*RDD)
	if !ok {
		return nil, fmt.Errorf("spark: fused chain input is %T, not an RDD", in)
	}
	if agg := kernel.Agg(); agg != nil {
		return e.applyChainAgg(kernel, r, counters, agg)
	}
	if segs := r.segments(); segs != nil {
		out := make([][]any, len(segs))
		pool(len(segs), e.width(), func(i int) {
			counts := make([]int64, kernel.Len())
			out[i] = kernel.RunSegments(segs[i], counts, nil)
			for s, c := range counts {
				atomic.AddInt64(counters[s], c)
			}
		})
		return NewRDD(out), nil
	}
	r.materialize()
	out := make([][]any, len(r.Parts))
	pool(len(r.Parts), e.width(), func(i int) {
		counts := make([]int64, kernel.Len())
		out[i] = kernel.Run(r.Parts[i], counts, nil)
		for s, c := range counts {
			atomic.AddInt64(counters[s], c)
		}
	})
	return NewRDD(out), nil
}

// applyChainAgg runs a chain terminated by an absorbed declarative
// aggregation: per-partition vectorized partial aggregation (the spark
// map-side combine), a shuffle of the group partials on the partial key,
// then per-partition merge and finalize. Partition boundaries and
// per-partition absorb order match the unfused two-phase path exactly, so
// group emission order — first occurrence per shuffled partition — is
// identical however the chain executes.
func (e *engine) applyChainAgg(kernel *driverutil.VectorKernel, r *RDD, counters []*int64, agg *core.ReduceExpr) (driverutil.Data, error) {
	segs := r.segments()
	nparts := len(segs)
	if segs == nil {
		r.materialize()
		nparts = len(r.Parts)
	}
	partials := make([][]any, nparts)
	pool(nparts, e.width(), func(i int) {
		counts := make([]int64, kernel.Len())
		st := core.NewAggState(agg)
		if segs != nil {
			kernel.RunSegmentsAgg(segs[i], counts, st)
		} else {
			kernel.RunAgg(r.Parts[i], counts, st)
		}
		partials[i] = st.Partials(nil)
		for s, c := range counts {
			atomic.AddInt64(counters[s], c)
		}
	})
	e.shuffleBarrier()
	shuffled := NewRDD(partials).shuffleBy(e.width(), nparts, agg.PartialKeyFn())
	out := make([][]any, len(shuffled.Parts))
	var groups int64
	pool(len(shuffled.Parts), e.width(), func(i int) {
		st := core.NewAggState(agg)
		st.AbsorbPartials(shuffled.Parts[i])
		out[i] = st.Finalize(nil)
		atomic.AddInt64(&groups, int64(len(out[i])))
	})
	atomic.AddInt64(counters[kernel.Len()], groups)
	return NewRDD(out), nil
}

func (e *engine) apply(op *core.Operator, in []*RDD, round int) (*RDD, error) {
	w := e.width()
	switch op.Kind {
	case core.KindCollectionSource:
		if len(in) > 0 { // loop-input placeholder
			return in[0], nil
		}
		return Partition(op.Params.Collection, w), nil

	case core.KindTextFileSource:
		return e.readTextFile(op.Params.Path)

	case core.KindMapPart:
		if op.UDF.MapPart == nil {
			return nil, fmt.Errorf("map-partitions %s lacks a UDF", op)
		}
		return in[0].mapPartitions(w, op.UDF.MapPart), nil

	case core.KindZipWithID:
		// Deterministic global ids: offset by partition prefix counts.
		offsets := make([]int64, len(in[0].Parts)+1)
		for i, p := range in[0].Parts {
			offsets[i+1] = offsets[i] + int64(len(p))
		}
		out := make([][]any, len(in[0].Parts))
		pool(len(in[0].Parts), w, func(i int) {
			part := in[0].Parts[i]
			res := make([]any, len(part))
			for j, q := range part {
				res[j] = core.KV{Key: offsets[i] + int64(j), Value: q}
			}
			out[i] = res
		})
		return NewRDD(out), nil

	case core.KindSample:
		return e.sample(op, in[0], round)

	case core.KindDistinct:
		e.shuffleBarrier()
		return in[0].shuffleBy(w, len(in[0].Parts), func(q any) any { return q }).
			mapPartitions(w, driverutil.Distinct), nil

	case core.KindSort:
		e.shuffleBarrier()
		less := driverutil.LessOf(op)
		ranged := in[0].rangeShuffle(w, len(in[0].Parts), less)
		return ranged.mapPartitions(w, func(part []any) []any {
			return driverutil.Sort(op, part)
		}), nil

	case core.KindCount:
		return Partition([]any{in[0].Count()}, 1), nil

	case core.KindReduce:
		// Per-partition fold, then a driver-side fold of the partials.
		partials, err := e.mapPartsErr(in[0], func(part []any) ([]any, error) {
			return driverutil.Reduce(op, part)
		})
		if err != nil {
			return nil, err
		}
		out, err := driverutil.Reduce(op, partials.Collect())
		if err != nil {
			return nil, err
		}
		return Partition(out, 1), nil

	case core.KindReduceBy:
		// Declarative aggregation: per-partition grouped partials, shuffle on
		// the partial key, merge and finalize. An aggregation is not
		// idempotent like a re-applied combiner, so this branches before the
		// opaque-UDF two-phase arm rather than dispatching inside it.
		if ex := op.UDF.ReduceExpr; ex != nil {
			partials, err := e.mapPartsErr(in[0], func(part []any) ([]any, error) {
				st := core.NewAggState(ex)
				st.AbsorbRows(part)
				return st.Partials(nil), nil
			})
			if err != nil {
				return nil, err
			}
			e.shuffleBarrier()
			shuffled := partials.shuffleBy(w, len(in[0].Parts), ex.PartialKeyFn())
			return e.mapPartsErr(shuffled, func(part []any) ([]any, error) {
				st := core.NewAggState(ex)
				st.AbsorbPartials(part)
				return st.Finalize(nil), nil
			})
		}
		if op.UDF.Key == nil || op.UDF.Reduce == nil {
			return nil, fmt.Errorf("reduce-by %s lacks key or reduce UDF", op)
		}
		// Map-side combine, shuffle, reduce-side final combine. Each partial
		// travels with the key of the quanta it folds, like Spark's
		// reduceByKey over pairs: a reduce UDF whose result carries another
		// key must not regroup its partial under that key.
		combined := in[0].mapPartitions(w, func(part []any) []any {
			keys, vals := combineByKey(op, part, false)
			pairs := make([]any, len(keys))
			for i, k := range keys {
				pairs[i] = core.KV{Key: k, Value: vals[i]}
			}
			return pairs
		})
		e.shuffleBarrier()
		shuffled := combined.shuffleBy(w, len(in[0].Parts), func(q any) any { return q.(core.KV).Key })
		return shuffled.mapPartitions(w, func(part []any) []any {
			_, vals := combineByKey(op, part, true)
			return vals
		}), nil

	case core.KindGroupBy:
		if op.UDF.Key == nil {
			return nil, fmt.Errorf("group-by %s lacks a key UDF", op)
		}
		e.shuffleBarrier()
		shuffled := in[0].shuffleBy(w, len(in[0].Parts), op.UDF.Key)
		return e.mapPartsErr(shuffled, func(part []any) ([]any, error) {
			return driverutil.GroupByKey(op, part)
		})

	case core.KindCache:
		out := NewRDD(in[0].Parts)
		out.Cached = true
		return out, nil

	case core.KindJoin:
		if op.UDF.Key == nil {
			return nil, fmt.Errorf("join %s lacks a key UDF", op)
		}
		e.shuffleBarrier()
		p := maxInt(len(in[0].Parts), len(in[1].Parts))
		ls := in[0].shuffleBy(w, p, op.UDF.Key)
		rs := in[1].shuffleBy(w, p, driverutil.KeyRight(op))
		out := make([][]any, p)
		var firstErr error
		var mu sync.Mutex
		pool(p, w, func(i int) {
			res, err := driverutil.HashJoin(op, ls.Parts[i], rs.Parts[i])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[i] = res
		})
		if firstErr != nil {
			return nil, firstErr
		}
		return NewRDD(out), nil

	case core.KindIEJoin:
		// Broadcast the right side to all left partitions; each worker runs
		// the sort-based IEJoin kernel on its slice.
		right := in[1].Collect()
		e.shuffleBarrier()
		return e.mapPartsErr(in[0], func(part []any) ([]any, error) {
			return driverutil.IEJoinSlices(op, part, right)
		})

	case core.KindCartesian:
		combine := driverutil.Combine(op)
		lp, rp := in[0].Parts, in[1].Parts
		n := len(lp) * len(rp)
		out := make([][]any, n)
		pool(n, w, func(i int) {
			l, r := lp[i/len(rp)], rp[i%len(rp)]
			var res []any
			for _, a := range l {
				for _, b := range r {
					res = append(res, combine(a, b))
				}
			}
			out[i] = res
		})
		return NewRDD(out), nil

	case core.KindUnion:
		parts := append(append([][]any{}, in[0].Parts...), in[1].Parts...)
		return NewRDD(parts), nil

	case core.KindIntersect:
		e.shuffleBarrier()
		p := maxInt(len(in[0].Parts), len(in[1].Parts))
		id := func(q any) any { return q }
		ls := in[0].shuffleBy(w, p, id)
		rs := in[1].shuffleBy(w, p, id)
		out := make([][]any, p)
		pool(p, w, func(i int) { out[i] = driverutil.Intersect(ls.Parts[i], rs.Parts[i]) })
		return NewRDD(out), nil

	case core.KindCoGroup:
		if op.UDF.Key == nil {
			return nil, fmt.Errorf("co-group %s lacks a key UDF", op)
		}
		e.shuffleBarrier()
		p := maxInt(len(in[0].Parts), len(in[1].Parts))
		ls := in[0].shuffleBy(w, p, op.UDF.Key)
		rs := in[1].shuffleBy(w, p, driverutil.KeyRight(op))
		out := make([][]any, p)
		var firstErr error
		var mu sync.Mutex
		pool(p, w, func(i int) {
			res, err := driverutil.CoGroup(op, ls.Parts[i], rs.Parts[i])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[i] = res
		})
		if firstErr != nil {
			return nil, firstErr
		}
		return NewRDD(out), nil

	case core.KindPageRank:
		return e.pageRank(op, in[0])

	case core.KindCollectionSink:
		return in[0], nil

	case core.KindTextFileSink:
		if err := e.writeTextFile(op, in[0]); err != nil {
			return nil, err
		}
		return in[0], nil

	default:
		return nil, fmt.Errorf("spark: unsupported operator kind %s", op.Kind)
	}
}

// combineByKey folds the quanta of part that share a key with op's reduce
// UDF and returns the distinct keys with their folded values, in
// first-occurrence order. With keyed set, part holds core.KV pairs (the
// shuffled map-side partials) and their carried keys are used.
func combineByKey(op *core.Operator, part []any, keyed bool) (keys, vals []any) {
	slot := map[any]int{}
	for _, q := range part {
		var k, v any
		if keyed {
			kv := q.(core.KV)
			k, v = kv.Key, kv.Value
		} else {
			k, v = op.UDF.Key(q), q
		}
		g := core.GroupKey(k)
		if i, ok := slot[g]; ok {
			vals[i] = op.UDF.Reduce(vals[i], v)
			continue
		}
		slot[g] = len(vals)
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals
}

func (e *engine) mapPartsErr(r *RDD, fn func(part []any) ([]any, error)) (*RDD, error) {
	out := make([][]any, len(r.Parts))
	var firstErr error
	var mu sync.Mutex
	pool(len(r.Parts), e.width(), func(i int) {
		res, err := fn(r.Parts[i])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		out[i] = res
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return NewRDD(out), nil
}

func (e *engine) sample(op *core.Operator, r *RDD, round int) (*RDD, error) {
	if op.Params.SampleSize == 0 && op.Params.SampleMethod != "shuffle-first" {
		// Fraction-based bernoulli parallelizes perfectly.
		out, err := e.mapPartsErr(r, func(part []any) ([]any, error) {
			return driverutil.Sample(op, part, round)
		})
		return out, err
	}
	// Exact-size (or shuffle-first) sampling: per-partition pre-sample of k,
	// then a driver-side final draw over the <= k*P pre-sample.
	k := op.Params.SampleSize
	pre, err := e.mapPartsErr(r, func(part []any) ([]any, error) {
		sub := *op // copy with per-partition cap
		sub.Params.SampleSize = k
		return driverutil.Sample(&sub, part, round)
	})
	if err != nil {
		return nil, err
	}
	final, err := driverutil.Sample(op, pre.Collect(), round)
	if err != nil {
		return nil, err
	}
	return Partition(final, e.width()), nil
}

func (e *engine) readTextFile(path string) (*RDD, error) {
	if dfs.IsPath(path) {
		if e.driver.DFS == nil {
			return nil, fmt.Errorf("spark: no DFS configured for %s", path)
		}
		name := dfs.TrimScheme(path)
		_, blocks, err := e.driver.DFS.Stat(name)
		if err != nil {
			return nil, err
		}
		// One split per block, read in parallel by the worker pool.
		parts := make([][]any, len(blocks))
		var firstErr error
		var mu sync.Mutex
		pool(len(blocks), e.width(), func(i int) {
			lines, err := e.driver.DFS.ReadBlockLines(name, i)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			part := make([]any, len(lines))
			for j, l := range lines {
				part[j] = l
			}
			parts[i] = part
		})
		if firstErr != nil {
			return nil, firstErr
		}
		return NewRDD(parts), nil
	}
	lines, err := core.ReadTextFile(path)
	if err != nil {
		return nil, err
	}
	return Partition(lines, e.width()), nil
}

func (e *engine) writeTextFile(op *core.Operator, r *RDD) error {
	format := driverutil.FormatOf(op)
	path := op.Params.Path
	data := r.Collect()
	if dfs.IsPath(path) {
		if e.driver.DFS == nil {
			return fmt.Errorf("spark: no DFS configured for %s", path)
		}
		lines := make([]string, len(data))
		for i, q := range data {
			lines[i] = format(q)
		}
		return e.driver.DFS.WriteLines(dfs.TrimScheme(path), lines)
	}
	return core.WriteTextFile(path, data, format)
}

func (d *Driver) loadDFSQuanta(path string) (*RDD, error) {
	if d.DFS == nil {
		return nil, fmt.Errorf("spark: no DFS configured for %s", path)
	}
	name := dfs.TrimScheme(path)
	_, blocks, err := d.DFS.Stat(name)
	if err != nil {
		return nil, err
	}
	// Each block split is decoded by its own worker: binary frames for
	// framed files, legacy JSON lines for files written before the binary
	// codec existed. With the columnar plane on, column-batch frames stay
	// batch-native per block; partition boundaries are the block splits
	// either way, so both paths see identical rows per partition.
	if core.ColumnarDisabled() {
		parts := make([][]any, len(blocks))
		var firstErr error
		var mu sync.Mutex
		pool(len(blocks), d.Conf.Parallelism, func(i int) {
			part, err := driverutil.ReadDFSQuantaBlock(d.DFS, name, i)
			if err == nil {
				parts[i] = part
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		})
		if firstErr != nil {
			return nil, firstErr
		}
		return NewRDD(parts), nil
	}
	segs := make([][]core.Segment, len(blocks))
	var firstErr error
	var mu sync.Mutex
	pool(len(blocks), d.Conf.Parallelism, func(i int) {
		part, err := driverutil.ReadDFSQuantaBlockSegments(d.DFS, name, i)
		if err == nil {
			segs[i] = part
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return NewSegRDD(segs), nil
}

func writeDFSQuanta(store *dfs.Store, name string, data []any) error {
	return driverutil.WriteDFSQuanta(store, name, data)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
