package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// fuzzSeedStreams returns the round-trip cases the codec tests exercise, as
// raw streams: row frames, batch frames, dictionary frames, legacy JSON
// lines, the empty stream, a truncated frame and a 2^31 length prefix.
func fuzzSeedStreams(t testing.TB) [][]byte {
	var seeds [][]byte
	encode := func(write func(*QuantaEncoder) error) []byte {
		var buf bytes.Buffer
		enc := NewQuantaEncoder(&buf)
		if err := write(enc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Row frames: one frame per quantum, every quantum kind.
	mixed := []any{nil, true, int64(-7), 2.5, "s", []float64{1, 2}, Record{int64(1), "b"},
		[]any{"x", int64(2)}, KV{Key: "k", Value: 1.5}, Edge{Src: 1, Dst: 2},
		Group{Key: "g", Values: []any{int64(1)}}}
	rows := encode(func(e *QuantaEncoder) error {
		for _, q := range mixed {
			if err := e.Encode(q); err != nil {
				return err
			}
		}
		return nil
	})
	seeds = append(seeds, rows)
	// Batch frames, with a row-framed tail that breaks batching.
	var batched []any
	for i := 0; i < 2*minBatchRows+5; i++ {
		batched = append(batched, Record{int64(i), float64(i) / 2, i%2 == 0, fmt.Sprintf("r%d", i)})
	}
	batched = append(batched, KV{Key: "tail", Value: int64(1)})
	seeds = append(seeds, encode(func(e *QuantaEncoder) error { return e.EncodeSlice(batched) }))
	// Dictionary frames: a low-cardinality string column with nulls.
	var dict []any
	for i := 0; i < minBatchRows+16; i++ {
		var s any = fmt.Sprintf("v%d", i%7)
		if i%11 == 0 {
			s = nil
		}
		dict = append(dict, Record{s, int64(i)})
	}
	seeds = append(seeds, encode(func(e *QuantaEncoder) error { return e.EncodeSlice(dict) }))
	// Legacy tagged-JSON lines.
	var lines []string
	for _, q := range []any{"a", Record{1.0, "b"}, KV{Key: "k", Value: 2.0}, nil, 1.5} {
		raw, err := EncodeQuantum(q)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
	seeds = append(seeds, []byte(strings.Join(lines, "\n")+"\n"))
	// Empty streams, with and without the magic.
	seeds = append(seeds, nil, []byte(BinaryQuantaMagic))
	// A frame cut short, and a length prefix claiming 2^31 bytes.
	seeds = append(seeds, rows[:len(rows)-2])
	seeds = append(seeds, binary.AppendUvarint([]byte(BinaryQuantaMagic), 1<<31))
	return seeds
}

// sameQuanta compares quanta by their binary encodings, which is equality
// for decoded values (and, unlike reflect.DeepEqual, holds for NaN).
func sameQuanta(t *testing.T, a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ea, err := EncodeQuantumBinary(a[i])
		if err != nil {
			t.Fatalf("re-encoding quantum %d: %v", i, err)
		}
		eb, err := EncodeQuantumBinary(b[i])
		if err != nil {
			t.Fatalf("re-encoding quantum %d: %v", i, err)
		}
		if !bytes.Equal(ea, eb) {
			return false
		}
	}
	return true
}

// FuzzReadQuantaStream feeds arbitrary bytes to the one quanta-stream
// decoder. It must never panic, and whatever it accepts must survive a
// write → read round trip with the same rows.
func FuzzReadQuantaStream(f *testing.F) {
	for _, s := range fuzzSeedStreams(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		segs, err := ReadQuantaStream(bytes.NewReader(stream))
		if err != nil {
			return
		}
		rows := SegmentRows(segs)
		var buf bytes.Buffer
		if err := WriteQuantaStream(&buf, rows); err != nil {
			t.Fatalf("decoded quanta do not re-encode: %v", err)
		}
		again, err := ReadQuantaStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if got := SegmentRows(again); !sameQuanta(t, got, rows) {
			t.Fatalf("round trip changed the rows:\n got %v\nwant %v", got, rows)
		}
	})
}
