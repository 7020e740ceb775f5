package driverutil

import (
	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// DFS-resident encoded quanta, the at-rest form of cross-platform data
// movement through the cluster file system (spark shuffle partitions, flink
// exchanges, streams spills). Files are written in the framed binary format
// — the core.BinaryQuantaMagic header, then one length-prefixed binary
// quantum per frame — with per-block frame offsets so parallel engines can
// read block splits independently. Readers fall back to the legacy
// one-JSON-document-per-line format for files written before the binary
// codec existed.

// WriteDFSQuanta encodes quanta into a framed binary DFS file. The name may
// carry the dfs:// scheme. A mid-write encode or replication error aborts
// the file (no metadata, blocks removed) rather than leaving a torn object.
// Runs of batchable rows are packed into column-wise batch frames (one frame
// per core.CodecBatchRows rows); readers expand them transparently. The
// encode buffer is borrowed from the shared pool so shuffle-heavy jobs don't
// regrow a scratch slice per partition file.
func WriteDFSQuanta(store *dfs.Store, name string, data []any) error {
	fw, err := store.CreateFrames(dfs.TrimScheme(name))
	if err != nil {
		return err
	}
	if err := fw.WriteRaw([]byte(core.BinaryQuantaMagic)); err != nil {
		fw.Abort()
		return err
	}
	bufp := core.GetEncodeBuf()
	defer core.PutEncodeBuf(bufp)
	buf := *bufp
	defer func() { *bufp = buf }()
	for start := 0; start < len(data); start += core.CodecBatchRows {
		end := min(start+core.CodecBatchRows, len(data))
		chunk := data[start:end]
		var ok bool
		if buf, ok, err = core.TryAppendBatch(buf[:0], chunk); err != nil {
			fw.Abort()
			return err
		}
		if ok {
			if err := fw.WriteFrame(buf); err != nil {
				fw.Abort()
				return err
			}
			continue
		}
		for _, q := range chunk {
			if buf, err = core.AppendQuantumBinary(buf[:0], q); err != nil {
				fw.Abort()
				return err
			}
			if err := fw.WriteFrame(buf); err != nil {
				fw.Abort()
				return err
			}
		}
	}
	return fw.Close()
}

// ReadDFSQuanta decodes a whole DFS quanta file into segments,
// auto-detecting framed binary vs legacy JSON lines (see
// core.ReadQuantaStream). The path may carry the dfs:// scheme.
func ReadDFSQuanta(store *dfs.Store, path string) ([]core.Segment, error) {
	r, err := store.Open(dfs.TrimScheme(path))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.ReadQuantaStream(r)
}

// ReadDFSQuantaBlock decodes the quanta one block split owns: binary frames
// for framed files, with column-batch frames kept native and consecutive
// row frames coalesced into one row segment, or the block's JSON lines as
// one row segment otherwise. Concatenating all blocks' segments yields
// exactly the file's quanta, each once.
func ReadDFSQuantaBlock(store *dfs.Store, name string, index int) ([]core.Segment, error) {
	name = dfs.TrimScheme(name)
	var rows []any
	if !store.IsFramed(name) {
		lines, err := store.ReadBlockLines(name, index)
		if err != nil {
			return nil, err
		}
		rows = make([]any, len(lines))
		for i, l := range lines {
			if rows[i], err = core.DecodeQuantum([]byte(l)); err != nil {
				return nil, err
			}
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return []core.Segment{{Rows: rows}}, nil
	}
	frames, err := store.ReadBlockFrames(name, index)
	if err != nil {
		return nil, err
	}
	var segs []core.Segment
	for _, f := range frames {
		q, err := core.DecodeQuantumBinary(f)
		if err != nil {
			return nil, err
		}
		if cb, ok := q.(*core.ColumnBatch); ok {
			if len(rows) > 0 {
				segs = append(segs, core.Segment{Rows: rows})
				rows = nil
			}
			segs = append(segs, core.Segment{Batch: cb})
			continue
		}
		rows = append(rows, q)
	}
	if len(rows) > 0 {
		segs = append(segs, core.Segment{Rows: rows})
	}
	return segs, nil
}
