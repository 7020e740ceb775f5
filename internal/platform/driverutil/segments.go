package driverutil

import (
	"fmt"

	"rheem/internal/core"
)

// Segment-carried channel movement. Every engine input — collection and
// file channels, DFS files and block splits — reaches the engines'
// partitions as core.Segments: runs of rows interleaved with native column
// batches, with row payloads wrapped as one row segment without copying.
// The cardinal rule is boundary identity: SplitSegments cuts exactly where
// the ceil-chunk row partitioners would, so the set and order of rows per
// partition never depend on how the quanta were carried, and the
// RHEEM_NO_COLUMNAR kill switch (which only stops batch frames being
// written and vector steps running) never changes what downstream
// operators observe.

// ChannelSegments extracts a collection- or file-typed channel's quanta as
// segments: a SegmentedDataset's own segments, a quanta file decoded with
// its batch frames kept native, or a slice payload wrapped as one row
// segment. The row segment aliases the payload; consumers that write rows
// in place must copy (core.SegmentRows does).
func ChannelSegments(ch *core.Channel) ([]core.Segment, error) {
	switch p := ch.Payload.(type) {
	case *core.SegmentedDataset:
		return p.Segs, nil
	case *core.SliceDataset:
		return rowSegment(p.Data), nil
	case []any:
		return rowSegment(p), nil
	case core.Dataset:
		return rowSegment(core.Materialize(p)), nil
	case string:
		// A file path: encoded quanta.
		return core.ReadQuantaFile(p)
	default:
		return nil, fmt.Errorf("driverutil: channel %s payload %T is not sliceable", ch.Desc.Name, ch.Payload)
	}
}

// ChannelSlice is the rows adapter of ChannelSegments for row-only
// consumers (broadcasts, graph engines, relational loads). Slice payloads
// come back as-is, without a copy.
func ChannelSlice(ch *core.Channel) ([]any, error) {
	switch p := ch.Payload.(type) {
	case *core.SliceDataset:
		return p.Data, nil
	case []any:
		return p, nil
	}
	segs, err := ChannelSegments(ch)
	if err != nil {
		return nil, err
	}
	return core.SegmentRows(segs), nil
}

// RowSegments wraps row partitions as segment partitions, one row segment
// each, without copying the rows: the carrier the fused kernels take.
func RowSegments(parts [][]any) [][]core.Segment {
	rows := make([]core.Segment, len(parts))
	out := make([][]core.Segment, len(parts))
	for i, p := range parts {
		rows[i] = core.Segment{Rows: p}
		out[i] = rows[i : i+1 : i+1]
	}
	return out
}

// rowSegment wraps rows as a one-segment partition without copying; empty
// input yields no segments.
func rowSegment(rows []any) []core.Segment {
	if len(rows) == 0 {
		return nil
	}
	return []core.Segment{{Rows: rows}}
}

// SplitSegments partitions a segment run into n contiguous parts with
// exactly the boundaries the engines' ceil-chunk row partitioners produce
// over the flattened rows (chunk = ceil(total/n); part i covers [i*chunk,
// min((i+1)*chunk, total))). A batch that straddles a boundary is expanded
// and split at the exact row offset — at most n-1 batches lose their
// batch-native form — so batch-carried and row-carried partitioning are
// row-for-row identical.
func SplitSegments(segs []core.Segment, n int) [][]core.Segment {
	if n <= 0 {
		n = 1
	}
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	parts := make([][]core.Segment, n)
	if total == 0 {
		return parts
	}
	chunk := (total + n - 1) / n
	si, off := 0, 0 // cursor: segment index, row offset within it
	for i := 0; i < n; i++ {
		lo := i * chunk
		hi := min(lo+chunk, total)
		if lo >= hi {
			continue
		}
		want := hi - lo
		var part []core.Segment
		for want > 0 {
			s := segs[si]
			rem := s.Len() - off
			if rem <= want {
				part = append(part, sliceSegment(s, off, s.Len()))
				want -= rem
				si, off = si+1, 0
				continue
			}
			part = append(part, sliceSegment(s, off, off+want))
			off += want
			want = 0
		}
		parts[i] = part
	}
	return parts
}

// sliceSegment returns rows [lo:hi) of a segment; a whole batch stays
// batch-native, a partial one expands to its boxed rows.
func sliceSegment(s core.Segment, lo, hi int) core.Segment {
	if s.Batch != nil {
		if lo == 0 && hi == s.Batch.Len() {
			return s
		}
		return core.Segment{Rows: s.Batch.AppendRows(nil)[lo:hi]}
	}
	return core.Segment{Rows: s.Rows[lo:hi:hi]}
}
