package rational

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	if got := New(3, 4); got.RatString() != "3/4" {
		t.Errorf("New(3,4) = %s, want 3/4", got.RatString())
	}
	if got := New(-6, 8); got.RatString() != "-3/4" {
		t.Errorf("New(-6,8) = %s, want -3/4 (reduced)", got.RatString())
	}
}

func TestNewPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"3/4", "3/4", true},
		{"-1/98", "-1/98", true},
		{"2", "2", true},
		{"0.25", "1/4", true},
		{"  5/17 ", "5/17", true},
		{"", "", false},
		{"x/y", "", false},
		{"1/0", "", false},
		{"-7", "-7", true},
		{"+3/9", "1/3", true},
		{"0.0625", "1/16", true},
		// Exponent and base-prefix forms are rejected: each expands
		// a few bytes into a huge number.
		{"1e-9999", "", false},
		{"1E3", "", false},
		{"2.5e1", "", false},
		{"0x1p-99999", "", false},
		{"1P3", "", false},
		{"0x10", "", false},
		{"0b101", "", false},
		{"1_000", "", false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok && err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("Parse(%q): expected error, got %s", c.in, got.RatString())
			}
			continue
		}
		if got.RatString() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got.RatString(), c.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse(garbage) did not panic")
		}
	}()
	MustParse("not-a-rational")
}

func TestArithmetic(t *testing.T) {
	a, b := New(1, 3), New(1, 6)
	if got := Add(a, b); !Equal(got, New(1, 2)) {
		t.Errorf("1/3 + 1/6 = %s, want 1/2", got.RatString())
	}
	if got := Sub(a, b); !Equal(got, New(1, 6)) {
		t.Errorf("1/3 - 1/6 = %s, want 1/6", got.RatString())
	}
	if got := Mul(a, b); !Equal(got, New(1, 18)) {
		t.Errorf("1/3 * 1/6 = %s, want 1/18", got.RatString())
	}
	if got := Div(a, b); !Equal(got, Int(2)) {
		t.Errorf("(1/3) / (1/6) = %s, want 2", got.RatString())
	}
	if got := Neg(a); !Equal(got, New(-1, 3)) {
		t.Errorf("-(1/3) = %s", got.RatString())
	}
	if got := Abs(New(-5, 7)); !Equal(got, New(5, 7)) {
		t.Errorf("|−5/7| = %s", got.RatString())
	}
}

func TestArithmeticDoesNotAliasInputs(t *testing.T) {
	a, b := New(1, 3), New(1, 6)
	_ = Add(a, b)
	if !Equal(a, New(1, 3)) || !Equal(b, New(1, 6)) {
		t.Fatal("Add mutated its inputs")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(One(), Zero())
}

func TestPow(t *testing.T) {
	half := New(1, 2)
	cases := []struct {
		k    int
		want *big.Rat
	}{
		{0, Int(1)},
		{1, New(1, 2)},
		{2, New(1, 4)},
		{7, New(1, 128)},
	}
	for _, c := range cases {
		if got := Pow(half, c.k); !Equal(got, c.want) {
			t.Errorf("(1/2)^%d = %s, want %s", c.k, got.RatString(), c.want.RatString())
		}
	}
}

func TestPowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow with negative exponent did not panic")
		}
	}()
	Pow(One(), -1)
}

func TestComparisons(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Less(a, b) || Less(b, a) {
		t.Error("Less(1/3, 1/2) wrong")
	}
	if !LessEq(a, a) {
		t.Error("LessEq(a, a) should hold")
	}
	if !IsZero(Zero()) || IsZero(a) {
		t.Error("IsZero wrong")
	}
	if !IsNonNegative(Zero()) || !IsNonNegative(a) || IsNonNegative(New(-1, 2)) {
		t.Error("IsNonNegative wrong")
	}
	if Cmp(a, b) != -1 || Cmp(b, a) != 1 || Cmp(a, a) != 0 {
		t.Error("Cmp wrong")
	}
}

func TestMinMax(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if got := Min(a, b); !Equal(got, a) {
		t.Errorf("Min = %s", got.RatString())
	}
	if got := Max(a, b); !Equal(got, b) {
		t.Errorf("Max = %s", got.RatString())
	}
	// Results are fresh copies.
	Min(a, b).SetInt64(99)
	if !Equal(a, New(1, 3)) {
		t.Error("Min aliases its argument")
	}
}

func TestSumAndDot(t *testing.T) {
	xs := []*big.Rat{New(1, 2), New(1, 3), New(1, 6)}
	if got := Sum(xs); !Equal(got, One()) {
		t.Errorf("Sum = %s, want 1", got.RatString())
	}
	if got := Sum(nil); !IsZero(got) {
		t.Errorf("Sum(nil) = %s, want 0", got.RatString())
	}
	a := []*big.Rat{Int(1), Int(2), Int(3)}
	b := []*big.Rat{Int(4), Int(5), Int(6)}
	if got := Dot(a, b); !Equal(got, Int(32)) {
		t.Errorf("Dot = %s, want 32", got.RatString())
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]*big.Rat{Int(1)}, nil)
}

func TestFloatAndString(t *testing.T) {
	if got := Float(New(1, 4)); got != 0.25 {
		t.Errorf("Float(1/4) = %v", got)
	}
	if got := String(New(7, 1)); got != "7" {
		t.Errorf("String(7/1) = %q, want 7", got)
	}
}

// TestFloatMatchesFloat64 pins Float's word-sized division path to
// big.Rat.Float64: both round to nearest, ties to even, so they agree
// bit for bit, at the 2⁵³ boundary on either side and on every random
// fraction below it.
func TestFloatMatchesFloat64(t *testing.T) {
	const b = int64(1) << 53
	check := func(r *big.Rat) {
		t.Helper()
		want, _ := r.Float64()
		if got := Float(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float(%s) = %v, big.Rat.Float64 = %v", r.RatString(), got, want)
		}
	}
	edges := []int64{0, 1, 2, 3, 7, 10, b - 3, b - 1, b, b + 1, b + 3, math.MaxInt64}
	for _, p := range edges {
		for _, q := range edges[1:] {
			check(New(p, q))
			check(New(-p, q))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100000; k++ {
		p := rng.Int63n(b) >> uint(rng.Intn(53))
		q := rng.Int63n(b)>>uint(rng.Intn(53)) + 1
		if k%2 == 1 {
			p = -p
		}
		check(New(p, q))
	}
}

func TestFromFloat(t *testing.T) {
	r, err := FromFloat(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(r, New(1, 2)) {
		t.Errorf("FromFloat(0.5) = %s", r.RatString())
	}
	if _, err := FromFloat(math.Inf(1)); err == nil {
		t.Error("FromFloat(+Inf) should error")
	}
	if _, err := FromFloat(math.NaN()); err == nil {
		t.Error("FromFloat(NaN) should error")
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector(3)
	if len(v) != 3 {
		t.Fatalf("Vector(3) len = %d", len(v))
	}
	for i, x := range v {
		if !IsZero(x) {
			t.Errorf("Vector entry %d = %s", i, x.RatString())
		}
	}
	v[0].SetInt64(5)
	c := CloneVector(v)
	c[0].SetInt64(9)
	if !Equal(v[0], Int(5)) {
		t.Error("CloneVector aliases entries")
	}
	if !VectorEqual(v, CloneVector(v)) {
		t.Error("VectorEqual false negative")
	}
	if VectorEqual(v, Vector(3)) {
		t.Error("VectorEqual false positive")
	}
	if VectorEqual(v, Vector(2)) {
		t.Error("VectorEqual should reject length mismatch")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 3)
	b := Clone(a)
	b.SetInt64(7)
	if !Equal(a, New(2, 3)) {
		t.Error("Clone aliases its argument")
	}
}

// Property: Add/Sub and Mul/Div round-trip.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(p1, p2 int32, q1, q2 uint8) bool {
		a := New(int64(p1), int64(q1)+1)
		b := New(int64(p2), int64(q2)+1)
		return Equal(Sub(Add(a, b), b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDivRoundTrip(t *testing.T) {
	f := func(p1, p2 int32, q1, q2 uint8) bool {
		a := New(int64(p1), int64(q1)+1)
		b := New(int64(p2), int64(q2)+1)
		if IsZero(b) {
			return true
		}
		return Equal(Div(Mul(a, b), b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPowMatchesRepeatedMul(t *testing.T) {
	f := func(p int16, q uint8, k uint8) bool {
		a := New(int64(p), int64(q)+1)
		n := int(k % 8)
		want := One()
		for i := 0; i < n; i++ {
			want.Mul(want, a)
		}
		return Equal(Pow(a, n), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
