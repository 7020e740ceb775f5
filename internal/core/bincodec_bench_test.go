package core

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// benchQuantaSet is a fixed mixed workload: the nested shapes real shuffle
// and cache traffic carries (records, KVs, groups, strings, vectors). A
// fixed seed keeps the JSON and binary benchmarks byte-comparable.
func benchQuantaSet() []any {
	r := rand.New(rand.NewSource(1))
	out := make([]any, 256)
	for i := range out {
		out[i] = randQuantum(r, 3)
	}
	return out
}

// BenchmarkEncodeQuantumJSON: the legacy wire format — tagged JSON, one
// document per quantum — measured as a full encode+decode round trip.
func BenchmarkEncodeQuantumJSON(b *testing.B) {
	quanta := benchQuantaSet()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line, err := EncodeQuantum(quanta[i%len(quanta)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeQuantum(line); err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(line))
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "wire_bytes/op")
}

// BenchmarkEncodeQuantumBinary: the binary codec on the same workload, with
// the buffer reuse every hot path gets via AppendQuantumBinary.
func BenchmarkEncodeQuantumBinary(b *testing.B) {
	quanta := benchQuantaSet()
	var buf []byte
	var err error
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = AppendQuantumBinary(buf[:0], quanta[i%len(quanta)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeQuantumBinary(buf); err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(buf))
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "wire_bytes/op")
}

// BenchmarkQuantaFileRoundTrip: a whole quanta file written and read back,
// the unit of work for every materialized channel.
func BenchmarkQuantaFileRoundTrip(b *testing.B) {
	quanta := benchQuantaSet()
	path := filepath.Join(b.TempDir(), "bench.rqb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteQuantaFile(path, quanta); err != nil {
			b.Fatal(err)
		}
		segs, err := ReadQuantaFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if out := SegmentRows(segs); len(out) != len(quanta) {
			b.Fatalf("read %d quanta, want %d", len(out), len(quanta))
		}
	}
}
