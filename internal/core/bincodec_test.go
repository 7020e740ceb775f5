package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// randQuantum builds a randomly nested quantum with depth-limited recursion
// over every type the codec supports.
func randQuantum(r *rand.Rand, depth int) any {
	scalar := func() any {
		switch r.Intn(7) {
		case 0:
			return nil
		case 1:
			return r.Intn(2) == 0
		case 2:
			return r.Int63() - r.Int63() // mixes signs and magnitudes
		case 3:
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(10)))
		case 4:
			return randString(r)
		case 5:
			fs := make([]float64, r.Intn(4))
			for i := range fs {
				fs[i] = r.Float64()
			}
			return fs
		default:
			return int64(r.Intn(100))
		}
	}
	if depth <= 0 || r.Intn(3) == 0 {
		return scalar()
	}
	elems := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = randQuantum(r, depth-1)
		}
		return out
	}
	switch r.Intn(5) {
	case 0:
		return Record(elems(1 + r.Intn(4)))
	case 1:
		return KV{Key: randQuantum(r, depth-1), Value: randQuantum(r, depth-1)}
	case 2:
		return Edge{Src: r.Int63n(1000), Dst: r.Int63n(1000)}
	case 3:
		return Group{Key: randQuantum(r, depth-1), Values: elems(r.Intn(4))}
	default:
		return elems(1 + r.Intn(3))
	}
}

func randString(r *rand.Rand) string {
	const alphabet = "abcdefghij κλμ\x00\n\"\\"
	runes := []rune(alphabet)
	n := r.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[r.Intn(len(runes))])
	}
	return sb.String()
}

func TestBinaryCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		q := randQuantum(r, 4)
		raw, err := AppendQuantumBinary(nil, q)
		if err != nil {
			t.Fatalf("encode %#v: %v", q, err)
		}
		back, err := DecodeQuantumBinary(raw)
		if err != nil {
			t.Fatalf("decode %#v: %v", q, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("round trip %d: got %#v, want %#v", i, back, q)
		}
	}
}

// TestBinaryCodecMatchesJSONCodec: both codecs must decode to identical
// in-memory values, since readers auto-detect the format and downstream
// UDFs depend on exact types either way.
func TestBinaryCodecMatchesJSONCodec(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		q := randQuantum(r, 3)
		bin, err := AppendQuantumBinary(nil, q)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		line, err := EncodeQuantum(q)
		if err != nil {
			t.Fatalf("json encode: %v", err)
		}
		fromBin, err := DecodeQuantumBinary(bin)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		fromJSON, err := DecodeQuantum(line)
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		if !reflect.DeepEqual(fromBin, fromJSON) {
			t.Fatalf("codecs disagree for %#v: binary %#v, json %#v", q, fromBin, fromJSON)
		}
	}
}

func TestBinaryCodecIntWidening(t *testing.T) {
	// Plain ints widen to int64, matching the JSON codec's decode side.
	raw, err := AppendQuantumBinary(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeQuantumBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.(int64); !ok || v != 7 {
		t.Fatalf("int decoded as %T %v, want int64 7", back, back)
	}
}

func TestDecodeQuantumBinaryCorrupt(t *testing.T) {
	good, err := AppendQuantumBinary(nil, Record{"abc", int64(5), []any{1.5, "x"}})
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeQuantumBinary(good[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is rejected (a frame is exactly one quantum).
	if _, err := DecodeQuantumBinary(append(append([]byte{}, good...), 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown tag.
	if _, err := DecodeQuantumBinary([]byte{0xff}); err == nil {
		t.Error("unknown tag accepted")
	}
	// A corrupt huge length must not attempt the allocation.
	if _, err := DecodeQuantumBinary([]byte{binString, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("oversized length accepted")
	}
}

func TestReadQuantaStreamTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	enc := NewQuantaEncoder(&buf)
	for _, q := range []any{"one", "two", "three"} {
		if err := enc.Encode(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the last frame: the stream must error, not return short.
	if _, err := ReadQuantaStream(bytes.NewReader(full[:len(full)-2])); err == nil {
		t.Error("truncated stream read without error")
	}
	if got, err := ReadQuantaStream(bytes.NewReader(full)); err != nil || len(got) != 3 {
		t.Errorf("full stream: %v quanta, err %v", got, err)
	}
}

// TestReadQuantaStreamHugeFrameLengthAllocatesLittle: a frame length
// prefix is a claim, not a fact. The 9-byte stream of the magic plus a
// 2^31 length must fail as corrupt without allocating the claimed 2 GiB.
func TestReadQuantaStreamHugeFrameLengthAllocatesLittle(t *testing.T) {
	stream := binary.AppendUvarint([]byte(BinaryQuantaMagic), 1<<31)
	if len(stream) != 9 {
		t.Fatalf("stream is %d bytes, want 9", len(stream))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadQuantaStream(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptQuantum) {
		t.Fatalf("err = %v, want ErrCorruptQuantum", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a 9-byte stream allocated %d bytes", grew)
	}
}

// TestReadQuantaFileLegacyJSON: files written by earlier builds (tagged
// JSON, one document per line) must still decode via auto-detection.
func TestReadQuantaFileLegacyJSON(t *testing.T) {
	in := []any{"a", Record{int64(1), "b"}, KV{Key: "k", Value: int64(2)}, nil, 1.5}
	var lines []string
	for _, q := range in {
		line, err := EncodeQuantum(q)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("legacy decode: got %#v, want %#v", out, in)
	}
}

func TestWriteQuantaFileIsBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quanta.rqb")
	in := []any{"x", int64(9), Record{1.5}}
	if err := WriteQuantaFile(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(BinaryQuantaMagic)) {
		t.Fatalf("file does not start with %q: % x", BinaryQuantaMagic, raw[:8])
	}
	out, err := ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %#v, want %#v", out, in)
	}
}

func TestWriteQuantaFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.rqb")
	if err := WriteQuantaFile(path, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty file decoded to %v", out)
	}
}

// TestWriteQuantaFileAtomicOnError: an encoding failure mid-write must not
// leave a partial file behind — neither at the target path nor as a stray
// temp file.
func TestWriteQuantaFileAtomicOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.rqb")
	// Pre-existing content must survive a failed overwrite.
	if err := WriteQuantaFile(path, []any{"keep"}); err != nil {
		t.Fatal(err)
	}
	bad := []any{"ok", make(chan int)} // channels are not encodable
	if err := WriteQuantaFile(path, bad); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	out, err := ReadQuantaFile(path)
	if err != nil || !reflect.DeepEqual(out, []any{"keep"}) {
		t.Fatalf("previous content clobbered: %v, %v", out, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files left after failed write: %v", names)
	}
}
