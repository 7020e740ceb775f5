package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRecordAccessors(t *testing.T) {
	r := Record{int64(7), 3.5, "x", int32(2), int(9), float32(1.5)}
	if r.Int(0) != 7 || r.Int(4) != 9 {
		t.Errorf("Int: got %d, %d", r.Int(0), r.Int(4))
	}
	if r.Float(1) != 3.5 || r.Float(3) != 2 || r.Float(5) != 1.5 {
		t.Errorf("Float coercion failed: %v %v %v", r.Float(1), r.Float(3), r.Float(5))
	}
	if r.String(2) != "x" || r.String(0) != "7" {
		t.Errorf("String: got %q, %q", r.String(2), r.String(0))
	}
	c := r.Copy()
	c[0] = int64(99)
	if r.Int(0) != 7 {
		t.Error("Copy aliases the original record")
	}
}

func TestRecordFloatPanicsOnNonNumeric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-numeric Float access")
		}
	}()
	Record{"abc"}.Float(0)
}

func TestSliceDataset(t *testing.T) {
	d := NewSliceDataset([]any{1, 2, 3})
	if d.Card() != 3 {
		t.Fatalf("Card = %d, want 3", d.Card())
	}
	got := Materialize(d)
	if !reflect.DeepEqual(got, []any{1, 2, 3}) {
		t.Fatalf("Materialize = %v", got)
	}
	// Datasets are re-iterable.
	got2 := Collect(d.Open())
	if !reflect.DeepEqual(got2, []any{1, 2, 3}) {
		t.Fatalf("second iteration = %v", got2)
	}
}

func TestFuncIterator(t *testing.T) {
	n := 0
	it := FuncIterator(func() (any, bool) {
		if n >= 2 {
			return nil, false
		}
		n++
		return n, true
	})
	if got := Collect(it); !reflect.DeepEqual(got, []any{1, 2}) {
		t.Fatalf("Collect = %v", got)
	}
}

func TestCompareAnyTotalOrder(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{1, 2, -1},
		{2.5, 2.5, 0},
		{int64(3), 2, 1},
		{1, "a", -1},    // numbers before strings
		{"a", "b", -1},  // string order
		{"a", 1.0, 1},   // symmetric
		{"x", KV{}, -1}, // strings before composites
		{KV{Key: 1}, "x", 1},
		{Record{1}, Record{1}, 0},
	}
	for _, c := range cases {
		if got := CompareAny(c.a, c.b); got != c.want {
			t.Errorf("CompareAny(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAnyAntisymmetryProperty(t *testing.T) {
	f := func(a, b float64, s1, s2 string, pick int) bool {
		vals := []any{a, b, s1, s2, int64(pick)}
		x := vals[abs(pick)%len(vals)]
		y := vals[abs(pick*31+7)%len(vals)]
		return CompareAny(x, y) == -CompareAny(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSortAny(t *testing.T) {
	data := []any{3, 1, 2}
	SortAny(data, func(a, b any) bool { return a.(int) < b.(int) })
	if !reflect.DeepEqual(data, []any{1, 2, 3}) {
		t.Fatalf("SortAny = %v", data)
	}
}

func TestGroupKeyScalarsIdentity(t *testing.T) {
	for _, v := range []any{1, int64(2), "s", 2.5, true, nil} {
		if GroupKey(v) != v {
			t.Errorf("GroupKey(%v) changed the scalar", v)
		}
	}
	// Composite keys map to a stable comparable representation.
	k1 := GroupKey(Record{1, "a"})
	k2 := GroupKey(Record{1, "a"})
	if k1 != k2 {
		t.Errorf("GroupKey not stable for equal records: %v vs %v", k1, k2)
	}
}

func TestCardEstimateArithmetic(t *testing.T) {
	a := CardEstimate{Low: 10, High: 20, Confidence: 0.8}
	b := CardEstimate{Low: 5, High: 5, Confidence: 1}

	sum := a.Add(b)
	if sum.Low != 15 || sum.High != 25 || sum.Confidence != 0.8 {
		t.Errorf("Add = %+v", sum)
	}
	prod := a.Mul(b)
	if prod.Low != 50 || prod.High != 100 {
		t.Errorf("Mul = %+v", prod)
	}
	sc := a.Scale(0.5)
	if sc.Low != 5 || sc.High != 10 {
		t.Errorf("Scale = %+v", sc)
	}
	w := b.Widen(0.2)
	if w.Low != 4 || w.High != 6 || w.Confidence >= 1 {
		t.Errorf("Widen = %+v", w)
	}
}

func TestCardEstimateOverflowClamps(t *testing.T) {
	huge := CardEstimate{Low: math.MaxInt64 / 8, High: math.MaxInt64 / 8, Confidence: 1}
	prod := huge.Mul(huge)
	if prod.High <= 0 {
		t.Fatalf("Mul overflowed: %+v", prod)
	}
	sum := huge.Add(huge.Add(huge))
	if sum.High <= 0 {
		t.Fatalf("Add overflowed: %+v", sum)
	}
}

func TestCardEstimateMismatchFactor(t *testing.T) {
	c := CardEstimate{Low: 100, High: 200, Confidence: 0.9}
	if f := c.MismatchFactor(150); f != 1 {
		t.Errorf("inside factor = %v", f)
	}
	if f := c.MismatchFactor(400); f != 2 {
		t.Errorf("above factor = %v", f)
	}
	if f := c.MismatchFactor(50); f != 2 {
		t.Errorf("below factor = %v", f)
	}
	if f := c.MismatchFactor(0); f <= 1 {
		t.Errorf("zero observed should mismatch, got %v", f)
	}
}

func TestCardEstimateGeomeanProperty(t *testing.T) {
	f := func(lo, hi uint32) bool {
		l, h := int64(lo%1_000_000), int64(hi%1_000_000)
		if l > h {
			l, h = h, l
		}
		c := CardEstimate{Low: l, High: h, Confidence: 1}
		g := c.Geomean()
		// Geomean lies within the (1-clamped) interval bounds.
		lof, hif := float64(l), float64(h)
		if lof < 1 {
			lof = 1
		}
		if hif < 1 {
			hif = 1
		}
		return g >= lof-1e-9 && g <= hif+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExactCard(t *testing.T) {
	c := ExactCard(42)
	if c.Low != 42 || c.High != 42 || c.Confidence != 1 {
		t.Errorf("ExactCard = %+v", c)
	}
	if n := ExactCard(-5); n.Low != 0 || n.High != 0 {
		t.Errorf("negative clamps to zero: %+v", n)
	}
}

func TestCostIntervalArithmetic(t *testing.T) {
	a := CostInterval{LowMs: 10, HighMs: 30, Confidence: 0.5}
	b := CostInterval{LowMs: 1, HighMs: 2, Confidence: 0.9}
	s := a.Add(b)
	if s.LowMs != 11 || s.HighMs != 32 || s.Confidence != 0.5 {
		t.Errorf("Add = %+v", s)
	}
	// Adding to a zero-confidence (unset) interval inherits the other side.
	z := CostInterval{}.Add(b)
	if z.Confidence != 0.9 {
		t.Errorf("zero-confidence Add = %+v", z)
	}
	sc := a.Scale(3)
	if sc.LowMs != 30 || sc.HighMs != 90 {
		t.Errorf("Scale = %+v", sc)
	}
	g := CostInterval{LowMs: 4, HighMs: 9, Confidence: 1}.Geomean()
	if math.Abs(g-6) > 1e-6 {
		t.Errorf("Geomean(4,9) = %v, want 6", g)
	}
}

func TestQuantumCodecRoundTrip(t *testing.T) {
	quanta := []any{
		"hello",
		3.25,
		int64(-7),
		true,
		Record{float64(1), "a", Record{float64(2)}},
		KV{Key: "k", Value: float64(5)},
		Edge{Src: 3, Dst: 9},
		Group{Key: "g", Values: []any{float64(1), "x"}},
	}
	for _, q := range quanta {
		line, err := EncodeQuantum(q)
		if err != nil {
			t.Fatalf("encode %v: %v", q, err)
		}
		back, err := DecodeQuantum(line)
		if err != nil {
			t.Fatalf("decode %v: %v", q, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Errorf("round trip %T: got %#v, want %#v", q, back, q)
		}
	}
}

func TestQuantaFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/quanta.jsonl"
	in := []any{"a", Record{float64(1), "b"}, KV{Key: float64(1), Value: "v"}}
	if err := WriteQuantaFile(path, in); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out := SegmentRows(segs); !reflect.DeepEqual(out, in) {
		t.Fatalf("got %#v, want %#v", out, in)
	}
}

func TestTextFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/text.txt"
	if err := WriteTextFile(path, []any{"line one", "line two"}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTextFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []any{"line one", "line two"}) {
		t.Fatalf("got %v", out)
	}
}

func TestReadTextFileMissing(t *testing.T) {
	if _, err := ReadTextFile("/nonexistent/path/x.txt"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestInequalityHolds(t *testing.T) {
	cases := []struct {
		iq   Inequality
		a, b float64
		want bool
	}{
		{Less, 1, 2, true}, {Less, 2, 2, false},
		{LessEq, 2, 2, true}, {LessEq, 3, 2, false},
		{Greater, 3, 2, true}, {Greater, 2, 2, false},
		{GreaterEq, 2, 2, true}, {GreaterEq, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.iq.Holds(c.a, c.b); got != c.want {
			t.Errorf("%v.Holds(%v,%v) = %v", c.iq, c.a, c.b, got)
		}
	}
	for iq, s := range map[Inequality]string{Less: "<", LessEq: "<=", Greater: ">", GreaterEq: ">="} {
		if iq.String() != s {
			t.Errorf("String() = %q, want %q", iq.String(), s)
		}
	}
}

func TestQuantumCodecPreservesNestedIntegers(t *testing.T) {
	// Data movement through files must not turn nested int64s into
	// float64s — UDFs downstream of a conversion depend on exact types.
	quanta := []any{
		core_KVInt(),
		Record{int64(7), KV{Key: "n", Value: int64(3)}},
		Group{Key: int64(2), Values: []any{int64(4), Record{int64(5)}}},
		[]float64{1.5, 2.5},
		nil,
		[]any{int64(1), "mixed", 2.5},
	}
	for _, q := range quanta {
		line, err := EncodeQuantum(q)
		if err != nil {
			t.Fatalf("encode %v: %v", q, err)
		}
		back, err := DecodeQuantum(line)
		if err != nil {
			t.Fatalf("decode %v: %v", q, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Errorf("nested round trip: got %#v, want %#v", back, q)
		}
	}
}

func core_KVInt() KV { return KV{Key: "w", Value: int64(1)} }
