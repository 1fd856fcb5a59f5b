package rational

import (
	"math"
	"math/big"
	"testing"
)

// FuzzParse checks that Parse never panics, that the size of every
// accepted value is linear in the input length (no exponent form can
// expand a short string), and that every accepted string round-trips
// through RatString.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"1/2", "-3/7", "0", "42", "0.125", "", "x", "1/0", " 5/17 ", "999999999999999999/7", "1e-9999", "0x1p-99999", "0.000001"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			return
		}
		// A decimal digit carries log2(10) < 4 bits, and neither the
		// numerator nor the denominator has more digits than s.
		if limit := 4*len(s) + 1; r.Num().BitLen() > limit || r.Denom().BitLen() > limit {
			t.Fatalf("Parse(%q) has %d/%d-bit numerator/denominator, over %d for %d input bytes",
				s, r.Num().BitLen(), r.Denom().BitLen(), limit, len(s))
		}
		back, err := Parse(r.RatString())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", r.RatString(), s, err)
		}
		if back.Cmp(r) != 0 {
			t.Fatalf("round trip changed value: %q → %s → %s", s, r.RatString(), back.RatString())
		}
	})
}

// FuzzPow checks that Pow agrees with iterated multiplication for
// arbitrary small bases and exponents.
func FuzzPow(f *testing.F) {
	f.Add(int64(2), int64(3), uint8(5))
	f.Add(int64(-7), int64(4), uint8(0))
	f.Fuzz(func(t *testing.T, p, q int64, k uint8) {
		if q == 0 {
			return
		}
		a := New(p, q)
		n := int(k % 12)
		want := One()
		for i := 0; i < n; i++ {
			want.Mul(want, a)
		}
		if got := Pow(a, n); got.Cmp(want) != 0 {
			t.Fatalf("Pow(%s, %d) = %s, want %s", a.RatString(), n, got.RatString(), want.RatString())
		}
	})
}

// fuzzOperand builds (n/d)·2^e exactly, with e in (−70, 70): shifts of
// int64 fractions put operands on both sides of the int64 boundary, so
// each Hval op sees Small, big and mixed operands, and big operands
// whose results fit a Small again.
func fuzzOperand(n, d int64, e int8) *big.Rat {
	r := new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
	k := int(e) % 70
	p := new(big.Int).Lsh(big.NewInt(1), uint(max(k, -k)))
	if k >= 0 {
		return r.Mul(r, new(big.Rat).SetInt(p))
	}
	return r.Quo(r, new(big.Rat).SetInt(p))
}

// checkHval asserts that got holds exactly want, reports the same Sign,
// IsZero and Bits, and sits on the Small tier exactly when want's
// components fit it.
func checkHval(t *testing.T, name string, got Hval, want *big.Rat) {
	t.Helper()
	if got.Rat().Cmp(want) != 0 {
		t.Fatalf("%s = %v, want %v", name, got.Rat(), want)
	}
	if got.Sign() != want.Sign() || got.IsZero() != (want.Sign() == 0) {
		t.Fatalf("%s: Sign %d IsZero %v, want sign %d", name, got.Sign(), got.IsZero(), want.Sign())
	}
	wantBits := max(want.Num().BitLen(), want.Denom().BitLen())
	if got.Bits() != wantBits {
		t.Fatalf("%s: Bits = %d, want %d", name, got.Bits(), wantBits)
	}
	_, fits := SmallFromRat(want)
	if (got.Tier() == TierSmall) != fits {
		t.Fatalf("%s = %v on tier %d; fits Small: %v", name, want, got.Tier(), fits)
	}
}

// FuzzHvalMatchesBigRat checks every Hval op against big.Rat, with
// operands straddling the int64 boundary: each result is exact, lands
// on the Small tier whenever it fits, and is counted on exactly one
// tier; no op mutates an operand.
func FuzzHvalMatchesBigRat(f *testing.F) {
	seeds := []struct {
		n [4]int64
		d [4]int64
		e [4]int8
	}{
		{[4]int64{1, 2, 5, -7}, [4]int64{1, 3, 7, 9}, [4]int8{0, 0, 0, 0}},
		{[4]int64{0, 1, 1, 1}, [4]int64{1, 5, 1, 1}, [4]int8{0, 64, -64, 0}},
		{[4]int64{math.MaxInt64, -math.MaxInt64, 3, 1}, [4]int64{1, 1, 1, math.MaxInt64}, [4]int8{0, 0, 62, -1}},
		{[4]int64{math.MinInt64, 1, math.MinInt64, -1}, [4]int64{1, math.MinInt64, 3, 1}, [4]int8{0, 0, 1, 63}},
		{[4]int64{1 << 40, 3, -(1 << 40), 9}, [4]int64{3, 1 << 40, 7, 1}, [4]int8{30, -30, 69, -69}},
		{[4]int64{6700417, 641, 274177, 67280421310721}, [4]int64{641, 6700417, 1, 1}, [4]int8{10, -10, 5, 5}},
		{[4]int64{math.MaxInt64, 1, -1, math.MaxInt64 - 1}, [4]int64{math.MaxInt64, 3, 1, 1}, [4]int8{1, -1, 63, -63}},
	}
	for _, s := range seeds {
		f.Add(s.n[0], s.d[0], s.n[1], s.d[1], s.n[2], s.d[2], s.n[3], s.d[3], s.e[0], s.e[1], s.e[2], s.e[3])
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd, cn, cd, dn, dd int64, ae, be, ce, de int8) {
		if ad == 0 || bd == 0 || cd == 0 || dd == 0 {
			return
		}
		ar, br := fuzzOperand(an, ad, ae), fuzzOperand(bn, bd, be)
		cr, dr := fuzzOperand(cn, cd, ce), fuzzOperand(dn, dd, de)
		refs := []*big.Rat{new(big.Rat).Set(ar), new(big.Rat).Set(br), new(big.Rat).Set(cr), new(big.Rat).Set(dr)}
		a, b, c, d := HvalFromRat(ar), HvalFromRat(br), HvalFromRat(cr), HvalFromRat(dr)
		for i, v := range []Hval{a, b, c, d} {
			checkHval(t, "HvalFromRat", v, refs[i])
		}

		var h HybridStats
		counted := func(name string) {
			t.Helper()
			if n := h.SmallOps + h.BigOps; n != 1 {
				t.Fatalf("%s counted %d ops, want 1", name, n)
			}
			h = HybridStats{scr: h.scr}
		}
		want := new(big.Rat).Mul(br, cr)
		checkHval(t, "FMS", h.FMS(a, b, c), want.Sub(ar, want))
		counted("FMS")
		checkHval(t, "Mul", h.Mul(a, b), new(big.Rat).Mul(ar, br))
		counted("Mul")
		checkHval(t, "AddH", h.AddH(a, b), new(big.Rat).Add(ar, br))
		counted("AddH")
		checkHval(t, "SubH", h.SubH(a, b), new(big.Rat).Sub(ar, br))
		counted("SubH")
		if br.Sign() != 0 {
			checkHval(t, "Quo", h.Quo(a, b), new(big.Rat).Quo(ar, br))
			counted("Quo")
		}
		if got, want := a.Cmp(b), ar.Cmp(br); got != want {
			t.Fatalf("Cmp = %d, want %d", got, want)
		}
		for i, r := range []*big.Rat{ar, br, cr, dr} {
			if r.Cmp(refs[i]) != 0 {
				t.Fatalf("operand %d mutated: %v, was %v", i, r, refs[i])
			}
		}
	})
}
