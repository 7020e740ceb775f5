package driverutil

import (
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

func quantaStore(t *testing.T) *dfs.Store {
	t.Helper()
	s, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 256, Replication: 1, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleQuanta(n int) []any {
	out := make([]any, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = core.KV{Key: "w", Value: int64(i)}
		case 1:
			out[i] = core.Record{int64(i), "text", 1.5}
		case 2:
			out[i] = "plain string with some padding to cross blocks"
		default:
			out[i] = int64(i)
		}
	}
	return out
}

func TestDFSQuantaRoundTrip(t *testing.T) {
	s := quantaStore(t)
	in := sampleQuanta(50) // well past one 256-byte block
	if err := WriteDFSQuanta(s, "data", in); err != nil {
		t.Fatal(err)
	}
	if !s.IsFramed("data") {
		t.Error("quanta file not written framed")
	}
	segs, err := ReadDFSQuanta(s, "data")
	if err != nil {
		t.Fatal(err)
	}
	if out := core.SegmentRows(segs); !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %d quanta, want %d", len(out), len(in))
	}
}

// TestDFSQuantaBlockReadsCoverFile: the spark driver reads quanta files one
// block per worker; the concatenation must equal the whole file.
func TestDFSQuantaBlockReadsCoverFile(t *testing.T) {
	s := quantaStore(t)
	in := sampleQuanta(60)
	if err := WriteDFSQuanta(s, "parts", in); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := s.Stat("parts")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Fatalf("only %d blocks; multi-block path not exercised", len(blocks))
	}
	var got []any
	for i := range blocks {
		part, err := ReadDFSQuantaBlock(s, "parts", i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		got = append(got, core.SegmentRows(part)...)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("block reads: got %d quanta, want %d", len(got), len(in))
	}
}

// TestDFSQuantaLegacyJSONLines: files written by earlier builds as tagged
// JSON lines must still load, both whole-file and per-block.
func TestDFSQuantaLegacyJSONLines(t *testing.T) {
	s := quantaStore(t)
	in := sampleQuanta(40)
	lines := make([]string, len(in))
	for i, q := range in {
		raw, err := core.EncodeQuantum(q)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	if err := s.WriteLines("legacy", lines); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadDFSQuanta(s, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if out := core.SegmentRows(segs); !reflect.DeepEqual(out, in) {
		t.Fatalf("legacy whole read: got %d quanta, want %d", len(out), len(in))
	}
	_, blocks, err := s.Stat("legacy")
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	for i := range blocks {
		part, err := ReadDFSQuantaBlock(s, "legacy", i)
		if err != nil {
			t.Fatalf("legacy block %d: %v", i, err)
		}
		got = append(got, core.SegmentRows(part)...)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("legacy block reads: got %d quanta, want %d", len(got), len(in))
	}
}

func TestDFSQuantaWriteErrorLeavesNoFile(t *testing.T) {
	s := quantaStore(t)
	if err := WriteDFSQuanta(s, "bad", []any{"ok", make(chan int)}); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	if s.Exists("bad") {
		t.Error("failed write left a file in the namespace")
	}
}
