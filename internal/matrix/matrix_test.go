package matrix

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"minimaxdp/internal/rational"
)

func mustM(t *testing.T, rows [][]string) *Matrix {
	t.Helper()
	m, err := FromStrings(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j).Sign() != 0 {
				t.Errorf("entry (%d,%d) not zero", i, j)
			}
		}
	}
	m.Set(1, 2, rational.New(5, 7))
	if m.At(1, 2).RatString() != "5/7" {
		t.Errorf("Set/At = %s", m.At(1, 2).RatString())
	}
}

func TestSetCopies(t *testing.T) {
	m := New(1, 1)
	v := rational.New(1, 2)
	m.Set(0, 0, v)
	v.SetInt64(9)
	if m.At(0, 0).RatString() != "1/2" {
		t.Error("Set aliases caller's value")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromRowsAndErrors(t *testing.T) {
	rows := [][]*big.Rat{
		{rational.Int(1), rational.Int(2)},
		{rational.Int(3), rational.Int(4)},
	}
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0).RatString() != "3" {
		t.Error("FromRows wrong entry")
	}
	// Deep copy.
	rows[0][0].SetInt64(99)
	if m.At(0, 0).RatString() != "1" {
		t.Error("FromRows aliases input")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should error")
	}
	if _, err := FromRows([][]*big.Rat{{rational.Int(1)}, {rational.Int(1), rational.Int(2)}}); err == nil {
		t.Error("ragged FromRows should error")
	}
}

func TestFromStringsErrors(t *testing.T) {
	if _, err := FromStrings([][]string{{"1", "bogus"}}); err == nil {
		t.Error("bad entry should error")
	}
	if _, err := FromStrings(nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := FromStrings([][]string{{"1"}, {"1", "2"}}); err == nil {
		t.Error("ragged should error")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	m := mustM(t, [][]string{{"1", "2", "3"}, {"4", "5", "6"}, {"7", "8", "10"}})
	prod, err := m.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(m) {
		t.Error("M·I != M")
	}
	prod, err = id.Mul(m)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(m) {
		t.Error("I·M != M")
	}
}

func TestMul(t *testing.T) {
	a := mustM(t, [][]string{{"1", "2"}, {"3", "4"}})
	b := mustM(t, [][]string{{"5", "6"}, {"7", "8"}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustM(t, [][]string{{"19", "22"}, {"43", "50"}})
	if !got.Equal(want) {
		t.Errorf("Mul =\n%s\nwant\n%s", got, want)
	}
	if _, err := a.Mul(New(3, 3)); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := mustM(t, [][]string{{"1", "2"}, {"3", "4"}})
	v := []*big.Rat{rational.Int(1), rational.Int(1)}
	got, err := a.MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].RatString() != "3" || got[1].RatString() != "7" {
		t.Errorf("MulVec = %v", got)
	}
	got, err = a.VecMul(v)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].RatString() != "4" || got[1].RatString() != "6" {
		t.Errorf("VecMul = %v", got)
	}
	if _, err := a.MulVec(v[:1]); err == nil {
		t.Error("MulVec length mismatch should error")
	}
	if _, err := a.VecMul(v[:1]); err == nil {
		t.Error("VecMul length mismatch should error")
	}
}

func TestAddSubScaleTranspose(t *testing.T) {
	a := mustM(t, [][]string{{"1", "2"}, {"3", "4"}})
	b := mustM(t, [][]string{{"1", "1"}, {"1", "1"}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(1, 1).RatString() != "5" {
		t.Error("Add wrong")
	}
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if diff.At(0, 0).RatString() != "0" {
		t.Error("Sub wrong")
	}
	sc := a.Scale(rational.New(1, 2))
	if sc.At(1, 1).RatString() != "2" {
		t.Error("Scale wrong")
	}
	tr := a.Transpose()
	if tr.At(0, 1).RatString() != "3" {
		t.Error("Transpose wrong")
	}
	if _, err := a.Add(New(1, 2)); err == nil {
		t.Error("Add shape mismatch should error")
	}
	if _, err := a.Sub(New(1, 2)); err == nil {
		t.Error("Sub shape mismatch should error")
	}
}

func TestRowColClone(t *testing.T) {
	a := mustM(t, [][]string{{"1", "2"}, {"3", "4"}})
	r := a.Row(0)
	r[0].SetInt64(99)
	if a.At(0, 0).RatString() != "1" {
		t.Error("Row aliases matrix")
	}
	c := a.Col(1)
	if c[0].RatString() != "2" || c[1].RatString() != "4" {
		t.Error("Col wrong")
	}
	cl := a.Clone()
	cl.Set(0, 0, rational.Int(42))
	if a.At(0, 0).RatString() != "1" {
		t.Error("Clone aliases matrix")
	}
}

func TestInverse(t *testing.T) {
	a := mustM(t, [][]string{{"2", "1"}, {"1", "1"}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod, err := a.Mul(inv)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(Identity(2)) {
		t.Errorf("A·A⁻¹ =\n%s", prod)
	}
}

func TestInverseSingular(t *testing.T) {
	a := mustM(t, [][]string{{"1", "2"}, {"2", "4"}})
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("non-square inverse should error")
	}
}

func TestSolve(t *testing.T) {
	a := mustM(t, [][]string{{"2", "1"}, {"1", "3"}})
	b := []*big.Rat{rational.Int(5), rational.Int(10)}
	x, err := a.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !rational.VectorEqual(got, b) {
		t.Errorf("A·x = %v, want %v", got, b)
	}
}

func TestDetKnownValues(t *testing.T) {
	cases := []struct {
		m    [][]string
		want string
	}{
		{[][]string{{"5"}}, "5"},
		{[][]string{{"1", "2"}, {"3", "4"}}, "-2"},
		{[][]string{{"2", "0", "0"}, {"0", "3", "0"}, {"0", "0", "4"}}, "24"},
		{[][]string{{"1", "2"}, {"2", "4"}}, "0"},
		{[][]string{{"0", "1"}, {"1", "0"}}, "-1"}, // forces a row swap
	}
	for _, c := range cases {
		m := mustM(t, c.m)
		d, err := m.Det()
		if err != nil {
			t.Fatal(err)
		}
		if d.RatString() != c.want {
			t.Errorf("Det(%v) = %s, want %s", c.m, d.RatString(), c.want)
		}
		dc, err := m.DetCofactor()
		if err != nil {
			t.Fatal(err)
		}
		if dc.Cmp(d) != 0 {
			t.Errorf("DetCofactor = %s disagrees with Det = %s", dc.RatString(), d.RatString())
		}
	}
	if _, err := New(2, 3).Det(); err == nil {
		t.Error("non-square Det should error")
	}
	if _, err := New(2, 3).DetCofactor(); err == nil {
		t.Error("non-square DetCofactor should error")
	}
}

func TestDetAgreesWithCofactorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		m := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rational.New(int64(rng.Intn(11)-5), int64(rng.Intn(4)+1)))
			}
		}
		d1, err := m.Det()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := m.DetCofactor()
		if err != nil {
			t.Fatal(err)
		}
		if d1.Cmp(d2) != 0 {
			t.Fatalf("trial %d: Det=%s DetCofactor=%s\n%s", trial, d1.RatString(), d2.RatString(), m)
		}
	}
}

func TestReplaceCol(t *testing.T) {
	a := mustM(t, [][]string{{"1", "2"}, {"3", "4"}})
	v := []*big.Rat{rational.Int(7), rational.Int(8)}
	b, err := a.ReplaceCol(1, v)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(0, 1).RatString() != "7" || b.At(1, 1).RatString() != "8" {
		t.Error("ReplaceCol wrong")
	}
	if a.At(0, 1).RatString() != "2" {
		t.Error("ReplaceCol mutated original")
	}
	if _, err := a.ReplaceCol(5, v); err == nil {
		t.Error("out-of-range column should error")
	}
	if _, err := a.ReplaceCol(0, v[:1]); err == nil {
		t.Error("wrong-length column should error")
	}
}

func TestStochasticPredicates(t *testing.T) {
	s := mustM(t, [][]string{{"1/2", "1/2"}, {"1/4", "3/4"}})
	if !s.IsStochastic() || !s.IsGeneralizedStochastic() || !s.IsNonNegative() {
		t.Error("valid stochastic matrix rejected")
	}
	g := mustM(t, [][]string{{"3/2", "-1/2"}, {"1/4", "3/4"}})
	if g.IsStochastic() {
		t.Error("negative entry accepted as stochastic")
	}
	if !g.IsGeneralizedStochastic() {
		t.Error("generalized stochastic rejected")
	}
	if g.IsNonNegative() {
		t.Error("IsNonNegative wrong")
	}
	bad := mustM(t, [][]string{{"1/2", "1/3"}})
	if bad.IsStochastic() || bad.IsGeneralizedStochastic() {
		t.Error("row sum != 1 accepted")
	}
}

func TestRowSums(t *testing.T) {
	m := mustM(t, [][]string{{"1/2", "1/3"}, {"1", "1"}})
	s := m.RowSums()
	if s[0].RatString() != "5/6" || s[1].RatString() != "2" {
		t.Errorf("RowSums = %v", s)
	}
}

func TestStringRendering(t *testing.T) {
	m := mustM(t, [][]string{{"1/2", "1"}, {"1", "1/2"}})
	s := m.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small rational matrices.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		mk := func() *Matrix {
			m := New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					m.Set(i, j, rational.New(int64(rng.Intn(7)-3), int64(rng.Intn(3)+1)))
				}
			}
			return m
		}
		a, b := mk(), mk()
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs := ab.Transpose()
		rhs, err := b.Transpose().Mul(a.Transpose())
		if err != nil {
			return false
		}
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: det(A·B) == det(A)·det(B).
func TestQuickDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		mk := func() *Matrix {
			m := New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					m.Set(i, j, rational.New(int64(rng.Intn(9)-4), 1))
				}
			}
			return m
		}
		a, b := mk(), mk()
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		da, _ := a.Det()
		db, _ := b.Det()
		dab, _ := ab.Det()
		return dab.Cmp(rational.Mul(da, db)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: for random nonsingular A, A·A⁻¹ == I.
func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		m := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rational.New(int64(rng.Intn(9)-4), int64(rng.Intn(3)+1)))
			}
		}
		d, err := m.Det()
		if err != nil || d.Sign() == 0 {
			return true // skip singular draws
		}
		inv, err := m.Inverse()
		if err != nil {
			return false
		}
		prod, err := m.Mul(inv)
		if err != nil {
			return false
		}
		return prod.Equal(Identity(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMulStatsCountersAndEquivalence pins the hybrid threading of the
// product on small operands (the fast tiers) against entrywise dot
// products over big.Rat. The name predates the fold of MulStats into
// Mul.
func TestMulStatsCountersAndEquivalence(t *testing.T) {
	a := mustM(t, [][]string{{"1/2", "1/3"}, {"2/5", "7"}})
	b := mustM(t, [][]string{{"3", "1/7"}, {"1/11", "4/9"}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: naive big.Rat dot products.
	want := New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			acc := rational.Zero()
			for k := 0; k < 2; k++ {
				acc.Add(acc, rational.Mul(a.At(i, k), b.At(k, j)))
			}
			want.Set(i, j, acc)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("Mul product mismatch:\n%v\nwant\n%v", got, want)
	}
}

// TestMulStatsEscalatesTiers drives the product across both overflow
// boundaries: entries past int64 engage the Wide tier and entries
// past 128 bits pay the big fallback, with the value always exact.
func TestMulStatsEscalatesTiers(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 100))  // 2^100: Wide-sized
	giant := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 200)) // 2^200: big-only
	a := New(2, 2)
	a.Set(0, 0, huge)
	a.Set(0, 1, rational.One())
	a.Set(1, 0, giant)
	a.Set(1, 1, rational.One())
	b := New(2, 2)
	b.Set(0, 0, rational.One())
	b.Set(1, 1, rational.One())
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0).Cmp(huge) != 0 || got.At(1, 0).Cmp(giant) != 0 {
		t.Fatalf("tiered product lost exactness:\n%v", got)
	}
}

// TestDetStatsCountersAndEquivalence pins the hybrid threading of the
// determinant elimination against the cofactor oracle. The name
// predates the fold of DetStats into Det.
func TestDetStatsCountersAndEquivalence(t *testing.T) {
	m := mustM(t, [][]string{
		{"2/3", "1/5", "0", "1"},
		{"1", "3/7", "1/2", "0"},
		{"0", "1/9", "4", "2/11"},
		{"5", "0", "1/13", "3"},
	})
	got, err := m.Det()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.DetCofactor()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("Det = %s, cofactor oracle = %s", got.RatString(), want.RatString())
	}
}
