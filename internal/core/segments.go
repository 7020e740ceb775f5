package core

// Segments are the one carrier of quanta between the decode, channel and
// kernel layers. A partition is a []Segment: runs of boxed rows interleaved
// with ColumnBatches kept column-major, so data decoded from batch frames
// (shuffle files, DFS blocks, spill channels) reaches the vectorized
// kernels without a row round-trip, and row data rides as a single row
// segment wrapped without copying. SegmentRows is the one place the row
// form is produced; SegmentedDataset adapts segments to the Dataset
// interface (iteration expands batches lazily) for row-only consumers.

// Segment is one contiguous run of a SegmentedDataset: either boxed rows or
// a column batch carried natively. Exactly one of the fields is set.
type Segment struct {
	Rows  []any
	Batch *ColumnBatch
}

// Len returns the number of quanta in the segment.
func (s Segment) Len() int {
	if s.Batch != nil {
		return s.Batch.Len()
	}
	return len(s.Rows)
}

// AppendRows appends the segment's quanta to dst in row-major form.
func (s Segment) AppendRows(dst []any) []any {
	if s.Batch != nil {
		return s.Batch.AppendRows(dst)
	}
	return append(dst, s.Rows...)
}

// SegmentRows flattens segments to row-major quanta in a fresh slice, never
// nil. It always copies: row segments can alias a caller's slice, and the
// result may be written in place (spark hands its partitions to
// partition-at-a-time UDFs).
func SegmentRows(segs []Segment) []any {
	n := 0
	for _, s := range segs {
		n += s.Len()
	}
	out := make([]any, 0, n)
	for _, s := range segs {
		out = s.AppendRows(out)
	}
	return out
}

// SegmentedDataset is a Dataset whose quanta live in row and column-batch
// segments, in order.
type SegmentedDataset struct {
	Segs []Segment
}

// NewSegmentedDataset wraps segments in a Dataset.
func NewSegmentedDataset(segs []Segment) *SegmentedDataset {
	return &SegmentedDataset{Segs: segs}
}

// Card returns the exact number of quanta.
func (d *SegmentedDataset) Card() int64 {
	var n int64
	for _, s := range d.Segs {
		n += int64(s.Len())
	}
	return n
}

// Open returns a row iterator; batch segments are expanded one segment at a
// time as iteration reaches them.
func (d *SegmentedDataset) Open() Iterator {
	return &segmentIter{segs: d.Segs}
}

type segmentIter struct {
	segs []Segment
	cur  []any
	pos  int
}

func (it *segmentIter) Next() (any, bool) {
	for it.pos >= len(it.cur) {
		if len(it.segs) == 0 {
			return nil, false
		}
		s := it.segs[0]
		it.segs = it.segs[1:]
		it.pos = 0
		if s.Batch != nil {
			it.cur = s.Batch.AppendRows(nil)
		} else {
			it.cur = s.Rows
		}
	}
	v := it.cur[it.pos]
	it.pos++
	return v, true
}
