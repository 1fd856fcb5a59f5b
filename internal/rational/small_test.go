package rational

import (
	"math"
	"math/big"
	"testing"
)

// mustSmall builds a Small or fails the test; for operands the
// oracle tests know are representable.
func mustSmall(t *testing.T, num, den int64) Small {
	t.Helper()
	s, ok := MakeSmall(num, den)
	if !ok {
		t.Fatalf("MakeSmall(%d, %d) unexpectedly failed", num, den)
	}
	return s
}

func TestMakeSmallNormalizes(t *testing.T) {
	cases := []struct {
		num, den         int64
		wantNum, wantDen int64
	}{
		{6, 4, 3, 2},
		{-6, 4, -3, 2},
		{6, -4, -3, 2},
		{-6, -4, 3, 2},
		{0, 7, 0, 1},
		{5, 1, 5, 1},
		{math.MaxInt64, math.MaxInt64, 1, 1},
	}
	for _, c := range cases {
		s := mustSmall(t, c.num, c.den)
		if s.Num() != c.wantNum || s.Den() != c.wantDen {
			t.Errorf("MakeSmall(%d, %d) = %d/%d, want %d/%d",
				c.num, c.den, s.Num(), s.Den(), c.wantNum, c.wantDen)
		}
	}
}

func TestMakeSmallRejects(t *testing.T) {
	cases := []struct{ num, den int64 }{
		{1, 0},
		{math.MinInt64, 3},
		{3, math.MinInt64}, // sign normalization would negate MinInt64
	}
	for _, c := range cases {
		if s, ok := MakeSmall(c.num, c.den); ok {
			t.Errorf("MakeSmall(%d, %d) = %d/%d, want rejection", c.num, c.den, s.Num(), s.Den())
		}
	}
}

func TestSmallZeroValue(t *testing.T) {
	var s Small
	if s.Den() != 1 || s.Num() != 0 || !s.IsZero() || s.Sign() != 0 {
		t.Fatalf("zero Small = %d/%d (sign %d), want 0/1", s.Num(), s.Den(), s.Sign())
	}
	if got := s.Rat(); got.Sign() != 0 {
		t.Fatalf("zero Small.Rat() = %v, want 0", got)
	}
}

// TestSmallArithmeticOracle cross-checks every checked operation
// against big.Rat over a grid that includes overflow-adjacent
// magnitudes; whenever the Small op succeeds it must agree exactly
// with the oracle.
func TestSmallArithmeticOracle(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -3, 7, 360, -360, 1 << 31, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	dens := []int64{1, 2, 3, 7, 97, 1 << 31, math.MaxInt64}
	var smalls []Small
	for _, n := range vals {
		for _, d := range dens {
			s, ok := MakeSmall(n, d)
			if !ok {
				t.Fatalf("MakeSmall(%d, %d) failed", n, d)
			}
			smalls = append(smalls, s)
		}
	}
	type op struct {
		name    string
		checked func(a, b Small) (Small, bool)
		oracle  func(a, b Small) *big.Rat
	}
	ops := []op{
		{"Add", Small.Add, func(a, b Small) *big.Rat { return new(big.Rat).Add(a.Rat(), b.Rat()) }},
		{"Sub", Small.Sub, func(a, b Small) *big.Rat { return new(big.Rat).Sub(a.Rat(), b.Rat()) }},
		{"Mul", Small.Mul, func(a, b Small) *big.Rat { return new(big.Rat).Mul(a.Rat(), b.Rat()) }},
		{"Quo", Small.Quo, func(a, b Small) *big.Rat { return new(big.Rat).Quo(a.Rat(), b.Rat()) }},
	}
	checkedOK, checkedFail := 0, 0
	for _, a := range smalls {
		for _, b := range smalls {
			for _, o := range ops {
				if o.name == "Quo" && b.IsZero() {
					if _, ok := o.checked(a, b); ok {
						t.Fatalf("Quo(%v, 0) succeeded", a.Rat())
					}
					continue
				}
				want := o.oracle(a, b)
				got, ok := o.checked(a, b)
				if !ok {
					checkedFail++
					continue
				}
				checkedOK++
				if got.Rat().Cmp(want) != 0 {
					t.Fatalf("%s(%v, %v) = %v, want %v", o.name, a.Rat(), b.Rat(), got.Rat(), want)
				}
			}
		}
	}
	if checkedOK == 0 {
		t.Fatal("no checked operation succeeded; grid is degenerate")
	}
	if checkedFail == 0 {
		t.Fatal("no checked operation overflowed; grid never exercises the fallback boundary")
	}
}

func TestSmallCmpOracle(t *testing.T) {
	vals := []int64{0, 1, -1, 5, -5, math.MaxInt64, math.MinInt64 + 1, 1 << 40}
	dens := []int64{1, 3, math.MaxInt64, 1 << 40}
	var smalls []Small
	for _, n := range vals {
		for _, d := range dens {
			if s, ok := MakeSmall(n, d); ok {
				smalls = append(smalls, s)
			}
		}
	}
	for _, a := range smalls {
		for _, b := range smalls {
			if got, want := a.Cmp(b), a.Rat().Cmp(b.Rat()); got != want {
				t.Fatalf("Cmp(%v, %v) = %d, want %d", a.Rat(), b.Rat(), got, want)
			}
		}
	}
}

func TestSmallFromRat(t *testing.T) {
	if s, ok := SmallFromRat(New(22, 7)); !ok || s.Num() != 22 || s.Den() != 7 {
		t.Fatalf("SmallFromRat(22/7) = %d/%d, %v", s.Num(), s.Den(), ok)
	}
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(1))
	if _, ok := SmallFromRat(huge); ok {
		t.Fatal("SmallFromRat(2^80) succeeded, want rejection")
	}
}

func TestCheckedKernels(t *testing.T) {
	if _, ok := addChecked(math.MaxInt64, 1); ok {
		t.Error("addChecked(MaxInt64, 1) succeeded")
	}
	if _, ok := subChecked(math.MinInt64, 1); ok {
		t.Error("subChecked(MinInt64, 1) succeeded")
	}
	if _, ok := mulChecked(math.MinInt64, -1); ok {
		t.Error("mulChecked(MinInt64, -1) succeeded")
	}
	if v, ok := mulChecked(math.MinInt64, 1); !ok || v != math.MinInt64 {
		t.Error("mulChecked(MinInt64, 1) failed")
	}
	if _, ok := negChecked(math.MinInt64); ok {
		t.Error("negChecked(MinInt64) succeeded")
	}
	if v, ok := addChecked(40, 2); !ok || v != 42 {
		t.Errorf("addChecked(40, 2) = %d, %v", v, ok)
	}
	if g := gcd64(360, 84); g != 12 {
		t.Errorf("gcd64(360, 84) = %d, want 12", g)
	}
}

// TestSmallFMSOracle cross-checks the fused multiply-subtract — the
// inner operation of LU elimination and revised-simplex updates —
// against big.Rat over an overflow-straddling grid. Whenever the
// checked kernel succeeds it must agree exactly with big.Rat, and the
// grid must exercise both sides of the overflow boundary.
func TestSmallFMSOracle(t *testing.T) {
	vals := []int64{0, 1, -1, 3, -7, 360, 1 << 20, -(1 << 20), 1 << 40, math.MaxInt64 - 1}
	dens := []int64{1, 2, 9, 97, 1 << 20, math.MaxInt64}
	var smalls []Small
	for _, n := range vals {
		for _, d := range dens {
			s, ok := MakeSmall(n, d)
			if !ok {
				t.Fatalf("MakeSmall(%d, %d) failed", n, d)
			}
			smalls = append(smalls, s)
		}
	}
	okCount, failCount := 0, 0
	for _, a := range smalls {
		for _, b := range smalls {
			for _, c := range smalls {
				want := new(big.Rat).Mul(b.Rat(), c.Rat())
				want.Sub(a.Rat(), want)
				got, ok := a.FMS(b, c)
				if !ok {
					failCount++
					continue
				}
				okCount++
				if got.Rat().Cmp(want) != 0 {
					t.Fatalf("FMS(%v, %v, %v) = %v, want %v",
						a.Rat(), b.Rat(), c.Rat(), got.Rat(), want)
				}
			}
		}
	}
	if okCount == 0 {
		t.Fatal("no FMS succeeded; grid is degenerate")
	}
	if failCount == 0 {
		t.Fatal("no FMS overflowed; grid never exercises the fallback boundary")
	}
}
