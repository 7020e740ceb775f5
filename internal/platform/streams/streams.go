// Package streams implements the JavaStreams-analog platform: a
// single-threaded, pull-based iterator engine with zero startup cost.
// Narrow operators (map, filter, flatMap, ...) chain lazily so a stage
// executes as one fused pipeline; blocking operators (sort, group, join,
// sample, ...) materialize their inputs. It is the "no overhead, no
// parallelism" corner of the platform space: unbeatable on small inputs,
// bound by one core on large ones.
package streams

import (
	"fmt"
	"os"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
)

// Platform is the platform name this driver registers under.
const Platform = "streams"

// Driver is the streams platform driver.
type Driver struct {
	// DFS gives access to dfs:// paths; optional.
	DFS *dfs.Store
	// TempDir hosts spilled file channels; defaults to the OS temp dir.
	TempDir string
	// SimSlowdown stretches stage runtimes to model a single cluster node's
	// capacity relative to the host substrate (which plays the whole
	// cluster for the parallel engines). Default 4; 1 disables.
	SimSlowdown float64
}

// New creates a streams driver with the default single-node capacity model.
func New(store *dfs.Store) *Driver { return &Driver{DFS: store, SimSlowdown: 4} }

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// ChannelDescriptors implements core.Driver: streams owns no channels of
// its own (it speaks the platform-neutral collection and file channels) but
// declares the neutral DFS channel when a DFS store is attached.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	if d.DFS == nil {
		return nil
	}
	return []core.ChannelDescriptor{DFSChannel}
}

// Conversions implements core.Driver: streams contributes the neutral
// collection <-> file conversions (it is the driver-side engine).
func (d *Driver) Conversions() []*core.Conversion {
	convs := []*core.Conversion{
		{
			Name: "streams.spill", From: "collection", To: "file",
			FixedCostMs: 1, PerQuantumMs: 0.004,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				data, err := driverutil.ChannelSlice(in)
				if err != nil {
					return nil, err
				}
				path, err := tempFile(d.TempDir, "rheem-spill-*.rqb")
				if err != nil {
					return nil, err
				}
				if err := core.WriteQuantaFile(path, data); err != nil {
					return nil, err
				}
				return core.NewChannel(core.FileChannel, path, int64(len(data))), nil
			},
		},
		{
			Name: "streams.fetch", From: "file", To: "collection",
			FixedCostMs: 1, PerQuantumMs: 0.003,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				// Keep decoded batch frames column-major: SegmentedDataset
				// iterates as the same rows, and batch-aware consumers skip
				// the rebuild.
				if !core.ColumnarDisabled() {
					segs, err := core.ReadQuantaFileSegments(in.Payload.(string))
					if err != nil {
						return nil, err
					}
					ds := core.NewSegmentedDataset(segs)
					return core.NewChannel(core.CollectionChannel, ds, ds.Card()), nil
				}
				data, err := core.ReadQuantaFile(in.Payload.(string))
				if err != nil {
					return nil, err
				}
				return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
			},
		},
	}
	if d.DFS != nil {
		convs = append(convs,
			&core.Conversion{
				Name: "streams.dfs-put", From: "collection", To: "dfs",
				FixedCostMs: 4, PerQuantumMs: 0.006,
				Convert: func(in *core.Channel) (*core.Channel, error) {
					data, err := driverutil.ChannelSlice(in)
					if err != nil {
						return nil, err
					}
					name := fmt.Sprintf("spill/%p.rqb", in)
					if err := WriteDFSQuanta(d.DFS, name, data); err != nil {
						return nil, err
					}
					return core.NewChannel(DFSChannel, dfs.Scheme+name, int64(len(data))), nil
				},
			},
			&core.Conversion{
				Name: "streams.dfs-get", From: "dfs", To: "collection",
				FixedCostMs: 4, PerQuantumMs: 0.005,
				Convert: func(in *core.Channel) (*core.Channel, error) {
					if !core.ColumnarDisabled() {
						segs, err := driverutil.ReadDFSQuantaSegments(d.DFS, in.Payload.(string))
						if err != nil {
							return nil, err
						}
						ds := core.NewSegmentedDataset(segs)
						return core.NewChannel(core.CollectionChannel, ds, ds.Card()), nil
					}
					data, err := ReadDFSQuanta(d.DFS, in.Payload.(string))
					if err != nil {
						return nil, err
					}
					return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
				},
			},
		)
	}
	return convs
}

// DFSChannel is the descriptor of DFS-resident encoded-quanta files. It is
// declared here (the first driver that can produce it) but platform-neutral.
var DFSChannel = core.ChannelDescriptor{Name: "dfs", Reusable: true, AtRest: true}

// ReadDFSQuanta decodes a DFS file of encoded quanta as written by the
// dfs-put conversions: framed binary, or one JSON document per line for
// files predating the binary codec. The path may carry the dfs:// scheme.
func ReadDFSQuanta(store *dfs.Store, path string) ([]any, error) {
	return driverutil.ReadDFSQuanta(store, path)
}

// WriteDFSQuanta encodes quanta into a framed binary DFS file.
func WriteDFSQuanta(store *dfs.Store, name string, data []any) error {
	return driverutil.WriteDFSQuanta(store, name, data)
}

// RegisterMappings implements core.Driver.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	one := func(k core.Kind, name string) {
		r.Register(k, core.Alternative{Platform: Platform, Steps: []core.ExecOpTemplate{{
			Name: name, Platform: Platform, Kind: k,
			In: []string{"collection"}, Out: "collection",
		}}})
	}
	one(core.KindCollectionSource, "streams.collection-source")
	one(core.KindTextFileSource, "streams.textfile-source")
	one(core.KindMap, "streams.map")
	one(core.KindFlatMap, "streams.flatmap")
	one(core.KindFilter, "streams.filter")
	one(core.KindMapPart, "streams.map-partitions")
	one(core.KindSample, "streams.sample")
	one(core.KindDistinct, "streams.distinct")
	one(core.KindSort, "streams.sort")
	one(core.KindCount, "streams.count")
	one(core.KindReduceBy, "streams.reduce-by")
	one(core.KindGroupBy, "streams.group-by")
	one(core.KindZipWithID, "streams.zip-with-id")
	one(core.KindCache, "streams.cache")
	one(core.KindProject, "streams.project")
	one(core.KindJoin, "streams.join")
	one(core.KindIEJoin, "streams.iejoin")
	one(core.KindCartesian, "streams.cartesian")
	one(core.KindUnion, "streams.union")
	one(core.KindIntersect, "streams.intersect")
	one(core.KindCoGroup, "streams.co-group")
	one(core.KindCollectionSink, "streams.collection-sink")
	one(core.KindTextFileSink, "streams.textfile-sink")
	// 1-to-n mapping, Figure 4 of the paper: the global Reduce has no single
	// streams primitive; it maps to a group-all + fold pipeline.
	r.Register(core.KindReduce, core.Alternative{Platform: Platform, Steps: []core.ExecOpTemplate{
		{Name: "streams.group-all", Platform: Platform, Kind: core.KindReduce, In: []string{"collection"}, Out: "collection"},
		{Name: "streams.fold", Platform: Platform, Kind: core.KindReduce, In: []string{"collection"}, Out: "collection"},
	}})
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	outs, stats, err := driverutil.RunStage(&engine{driver: d, stage: stage}, stage, in)
	if err == nil {
		driverutil.ApplySlowdown(stats, d.SimSlowdown)
	}
	return outs, stats, err
}

// pipe is the engine's native data: a re-openable iterator pipeline with an
// optional known cardinality.
type pipe struct {
	open func() core.Iterator
	card int64 // -1 unknown

	// segs, set only on source pipes built from batch-native channels,
	// carries the quanta as column batches interleaved with row runs. open
	// expands them lazily, so row consumers see the identical stream; the
	// batch-aware ApplyChain reads segs directly.
	segs []core.Segment
}

func slicePipe(data []any) *pipe {
	return &pipe{open: func() core.Iterator { return core.NewSliceDataset(data).Open() }, card: int64(len(data))}
}

func segPipe(segs []core.Segment) *pipe {
	ds := core.NewSegmentedDataset(segs)
	return &pipe{open: ds.Open, card: ds.Card(), segs: segs}
}

func (p *pipe) materialize() []any { return core.Collect(p.open()) }

type engine struct {
	driver *Driver
	stage  *core.Stage
}

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (driverutil.Data, error) {
	switch ch.Desc.Name {
	case "collection", "file":
		// Batch-native inputs keep their column batches; iteration order is
		// identical to the row carrier either way.
		if segs, ok, err := driverutil.ChannelSegments(ch); err != nil {
			return nil, err
		} else if ok {
			return segPipe(segs), nil
		}
		data, err := driverutil.ChannelSlice(ch)
		if err != nil {
			return nil, err
		}
		return slicePipe(data), nil
	case "dfs":
		if e.driver.DFS == nil {
			return nil, fmt.Errorf("streams: no DFS configured")
		}
		if !core.ColumnarDisabled() {
			segs, err := driverutil.ReadDFSQuantaSegments(e.driver.DFS, ch.Payload.(string))
			if err != nil {
				return nil, err
			}
			return segPipe(segs), nil
		}
		data, err := ReadDFSQuanta(e.driver.DFS, ch.Payload.(string))
		if err != nil {
			return nil, err
		}
		return slicePipe(data), nil
	default:
		return nil, fmt.Errorf("streams: unsupported input channel %q", ch.Desc.Name)
	}
}

// ToChannel implements driverutil.Engine.
func (e *engine) ToChannel(op *core.Operator, d driverutil.Data) (*core.Channel, error) {
	p, ok := d.(*pipe)
	if !ok {
		return nil, fmt.Errorf("streams: %s produced no pipeline", op)
	}
	data := p.materialize()
	return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in []driverutil.Data, bc core.BroadcastCtx, round int, counter *int64, sniff func(any)) (driverutil.Data, error) {
	ins := make([]*pipe, len(in))
	for i, d := range in {
		p, ok := d.(*pipe)
		if !ok {
			return nil, fmt.Errorf("streams: %s input %d is %T, not a pipeline", op, i, d)
		}
		ins[i] = p
	}
	out, err := e.apply(op, ins, round)
	if err != nil {
		return nil, err
	}
	// Observe outputs: count every quantum (and sniff, in exploratory mode)
	// as it flows by.
	observed := &pipe{card: out.card, open: func() core.Iterator {
		it := out.open()
		return core.FuncIterator(func() (any, bool) {
			q, ok := it.Next()
			if ok {
				*counter++
				if sniff != nil {
					sniff(q)
				}
			}
			return q, ok
		})
	}}
	// A lazily observed pipeline re-runs (and re-counts) per consumer; when
	// the operator feeds several stage-local consumers, materialize once.
	if countConsumersInStage(e.stage, op) > 1 {
		data := observed.materialize()
		*counter = int64(len(data))
		return slicePipe(data), nil
	}
	return observed, nil
}

// ApplyChain implements driverutil.ChainEngine: the whole narrow chain runs
// as one eager single-threaded pass. The engine's iterators are already
// fused in spirit (pull-based chaining), but the compiled kernel replaces k
// FuncIterator virtual calls per quantum with one closure pass and counts
// without the per-quantum observation wrapper.
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, in driverutil.Data, counters []*int64) (driverutil.Data, error) {
	p, ok := in.(*pipe)
	if !ok {
		return nil, fmt.Errorf("streams: fused chain input is %T, not a pipeline", in)
	}
	counts := make([]int64, kernel.Len())
	if agg := kernel.Agg(); agg != nil {
		// Single partition: absorb everything, then finalize — no partial
		// exchange needed. Emission order is the groups' first-occurrence
		// order, exactly what the unfused row path produces.
		st := core.NewAggState(agg)
		if p.segs != nil {
			kernel.RunSegmentsAgg(p.segs, counts, st)
		} else {
			kernel.RunAgg(p.materialize(), counts, st)
		}
		out := st.Finalize(nil)
		for s, c := range counts {
			*counters[s] += c
		}
		*counters[kernel.Len()] += int64(len(out))
		return slicePipe(out), nil
	}
	var out []any
	if p.segs != nil {
		out = kernel.RunSegments(p.segs, counts, nil)
	} else {
		out = kernel.Run(p.materialize(), counts, nil)
	}
	for s, c := range counts {
		*counters[s] += c
	}
	return slicePipe(out), nil
}

func countConsumersInStage(stage *core.Stage, op *core.Operator) int {
	n := 0
	for _, consumer := range op.Outputs() {
		if stage.Contains(consumer) {
			n++
		}
	}
	return n
}

func (e *engine) apply(op *core.Operator, in []*pipe, round int) (*pipe, error) {
	switch op.Kind {
	case core.KindCollectionSource:
		if len(in) > 0 { // loop-input placeholder: carried value substituted
			return in[0], nil
		}
		return slicePipe(op.Params.Collection), nil

	case core.KindTextFileSource:
		lines, err := e.readTextLines(op.Params.Path)
		if err != nil {
			return nil, err
		}
		return slicePipe(lines), nil

	case core.KindMapPart:
		if op.UDF.MapPart == nil {
			return nil, fmt.Errorf("map-partitions %s lacks a UDF", op)
		}
		f := op.UDF.MapPart
		src := in[0]
		return &pipe{card: -1, open: func() core.Iterator {
			return core.NewSliceDataset(f(src.materialize())).Open()
		}}, nil

	case core.KindZipWithID:
		return lazyUnary(in[0], func(it core.Iterator) core.Iterator {
			var id int64
			return core.FuncIterator(func() (any, bool) {
				q, ok := it.Next()
				if !ok {
					return nil, false
				}
				kv := core.KV{Key: id, Value: q}
				id++
				return kv, true
			})
		}, in[0].card), nil

	case core.KindSample:
		data, err := driverutil.Sample(op, in[0].materialize(), round)
		if err != nil {
			return nil, err
		}
		return slicePipe(data), nil

	case core.KindDistinct:
		return slicePipe(driverutil.Distinct(in[0].materialize())), nil

	case core.KindSort:
		return slicePipe(driverutil.Sort(op, in[0].materialize())), nil

	case core.KindCount:
		n := int64(0)
		it := in[0].open()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		return slicePipe([]any{n}), nil

	case core.KindReduce:
		out, err := driverutil.Reduce(op, in[0].materialize())
		if err != nil {
			return nil, err
		}
		return slicePipe(out), nil

	case core.KindReduceBy:
		out, err := driverutil.ReduceByKey(op, in[0].materialize())
		if err != nil {
			return nil, err
		}
		return slicePipe(out), nil

	case core.KindGroupBy:
		out, err := driverutil.GroupByKey(op, in[0].materialize())
		if err != nil {
			return nil, err
		}
		return slicePipe(out), nil

	case core.KindCache:
		return slicePipe(in[0].materialize()), nil

	case core.KindJoin:
		out, err := driverutil.HashJoin(op, in[0].materialize(), in[1].materialize())
		if err != nil {
			return nil, err
		}
		return slicePipe(out), nil

	case core.KindIEJoin:
		out, err := driverutil.IEJoinSlices(op, in[0].materialize(), in[1].materialize())
		if err != nil {
			return nil, err
		}
		return slicePipe(out), nil

	case core.KindCartesian:
		left, right := in[0], in[1]
		combine := driverutil.Combine(op)
		return &pipe{card: -1, open: func() core.Iterator {
			rs := right.materialize()
			lit := left.open()
			var cur any
			idx := len(rs) // force first advance
			return core.FuncIterator(func() (any, bool) {
				for idx >= len(rs) {
					q, ok := lit.Next()
					if !ok {
						return nil, false
					}
					cur = q
					idx = 0
				}
				out := combine(cur, rs[idx])
				idx++
				return out, true
			})
		}}, nil

	case core.KindUnion:
		left, right := in[0], in[1]
		return &pipe{card: addCards(left.card, right.card), open: func() core.Iterator {
			lit := left.open()
			var rit core.Iterator
			return core.FuncIterator(func() (any, bool) {
				if rit == nil {
					if q, ok := lit.Next(); ok {
						return q, true
					}
					rit = right.open()
				}
				return rit.Next()
			})
		}}, nil

	case core.KindIntersect:
		return slicePipe(driverutil.Intersect(in[0].materialize(), in[1].materialize())), nil

	case core.KindCoGroup:
		out, err := driverutil.CoGroup(op, in[0].materialize(), in[1].materialize())
		if err != nil {
			return nil, err
		}
		return slicePipe(out), nil

	case core.KindCollectionSink:
		return slicePipe(in[0].materialize()), nil

	case core.KindTextFileSink:
		data := in[0].materialize()
		if err := e.writeTextLines(op.Params.Path, data, driverutil.FormatOf(op)); err != nil {
			return nil, err
		}
		return slicePipe(data), nil

	default:
		return nil, fmt.Errorf("streams: unsupported operator kind %s", op.Kind)
	}
}

func lazyUnary(src *pipe, wrap func(core.Iterator) core.Iterator, card int64) *pipe {
	return &pipe{card: card, open: func() core.Iterator { return wrap(src.open()) }}
}

func addCards(a, b int64) int64 {
	if a < 0 || b < 0 {
		return -1
	}
	return a + b
}

func (e *engine) readTextLines(path string) ([]any, error) {
	if dfs.IsPath(path) {
		if e.driver.DFS == nil {
			return nil, fmt.Errorf("streams: no DFS configured for %s", path)
		}
		lines, err := e.driver.DFS.ReadLines(dfs.TrimScheme(path))
		if err != nil {
			return nil, err
		}
		out := make([]any, len(lines))
		for i, l := range lines {
			out[i] = l
		}
		return out, nil
	}
	return core.ReadTextFile(path)
}

func (e *engine) writeTextLines(path string, data []any, format func(any) string) error {
	if dfs.IsPath(path) {
		if e.driver.DFS == nil {
			return fmt.Errorf("streams: no DFS configured for %s", path)
		}
		lines := make([]string, len(data))
		for i, q := range data {
			lines[i] = format(q)
		}
		return e.driver.DFS.WriteLines(dfs.TrimScheme(path), lines)
	}
	return core.WriteTextFile(path, data, format)
}

func tempFile(dir, pattern string) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	path := f.Name()
	f.Close()
	return path, nil
}
