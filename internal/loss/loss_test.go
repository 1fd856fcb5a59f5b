package loss

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"minimaxdp/internal/rational"
)

func TestAbsolute(t *testing.T) {
	var l Absolute
	if l.Loss(3, 7).RatString() != "4" || l.Loss(7, 3).RatString() != "4" || l.Loss(5, 5).Sign() != 0 {
		t.Error("Absolute wrong")
	}
	if l.Name() != "absolute" {
		t.Error("name")
	}
}

func TestSquared(t *testing.T) {
	var l Squared
	if l.Loss(2, 5).RatString() != "9" || l.Loss(5, 2).RatString() != "9" {
		t.Error("Squared wrong")
	}
	if l.Name() != "squared" {
		t.Error("name")
	}
}

func TestZeroOne(t *testing.T) {
	var l ZeroOne
	if l.Loss(4, 4).Sign() != 0 || l.Loss(4, 5).RatString() != "1" {
		t.Error("ZeroOne wrong")
	}
	if l.Name() != "zero-one" {
		t.Error("name")
	}
}

func TestScaled(t *testing.T) {
	l := Scaled{Inner: Absolute{}, C: rational.New(3, 2)}
	if l.Loss(0, 4).RatString() != "6" {
		t.Errorf("Scaled = %s", l.Loss(0, 4).RatString())
	}
	if l.Name() == "" {
		t.Error("name")
	}
}

func TestDeadband(t *testing.T) {
	l := Deadband{Width: 2}
	if l.Loss(5, 6).Sign() != 0 || l.Loss(5, 7).Sign() != 0 {
		t.Error("inside band should be 0")
	}
	if l.Loss(5, 8).RatString() != "1" || l.Loss(5, 1).RatString() != "2" {
		t.Error("outside band wrong")
	}
	if l.Name() != "deadband(2)" {
		t.Error("name")
	}
}

func TestCapped(t *testing.T) {
	l := Capped{Inner: Squared{}, Cap: rational.Int(4)}
	if l.Loss(0, 1).RatString() != "1" {
		t.Error("below cap wrong")
	}
	if l.Loss(0, 5).RatString() != "4" {
		t.Error("cap not applied")
	}
	if l.Name() == "" {
		t.Error("name")
	}
}

func TestPower(t *testing.T) {
	l := Power{K: 3}
	if l.Loss(1, 3).RatString() != "8" {
		t.Errorf("Power = %s", l.Loss(1, 3).RatString())
	}
	if l.Name() == "" {
		t.Error("name")
	}
}

func TestPowerPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 did not panic")
		}
	}()
	Power{K: 0}.Loss(1, 2)
}

func TestAsymmetric(t *testing.T) {
	l := Asymmetric{Over: rational.Int(2), Under: rational.Int(1)}
	if l.Loss(3, 5).RatString() != "4" { // over by 2 → 2·2
		t.Error("over wrong")
	}
	if l.Loss(5, 3).RatString() != "2" { // under by 2 → 1·2
		t.Error("under wrong")
	}
	if l.Name() == "" {
		t.Error("name")
	}
}

func TestTable(t *testing.T) {
	l := Table{Entries: Matrix(Absolute{}, 2), Label: "abs-copy"}
	if l.Loss(0, 2).RatString() != "2" {
		t.Error("Table lookup wrong")
	}
	if l.Name() != "abs-copy" {
		t.Error("label wrong")
	}
	// Loss must return copies, not aliases into the table.
	l.Loss(0, 2).SetInt64(9)
	if l.Entries[0][2].RatString() != "2" {
		t.Error("Table.Loss aliases entries")
	}
}

func TestValidateAcceptsPaperLosses(t *testing.T) {
	for _, l := range []Function{Absolute{}, Squared{}, ZeroOne{}, Deadband{Width: 1},
		Power{K: 2}, Scaled{Inner: Absolute{}, C: rational.New(1, 2)},
		Capped{Inner: Absolute{}, Cap: rational.Int(3)}} {
		if err := Validate(l, 6); err != nil {
			t.Errorf("%s rejected: %v", l.Name(), err)
		}
		if err := ValidateWeak(l, 6); err != nil {
			t.Errorf("%s rejected by weak: %v", l.Name(), err)
		}
	}
}

func TestValidateRejectsAsymmetric(t *testing.T) {
	l := Asymmetric{Over: rational.Int(2), Under: rational.Int(1)}
	err := Validate(l, 4)
	if !errors.Is(err, ErrNotMonotone) {
		t.Errorf("asymmetric loss accepted by strict validator: %v", err)
	}
	// But the weak (one-sided monotone) check passes.
	if err := ValidateWeak(l, 4); err != nil {
		t.Errorf("asymmetric loss rejected by weak validator: %v", err)
	}
}

func TestValidateRejectsDecreasing(t *testing.T) {
	// Loss that rewards distance: l = −|i−r| shifted to stay ≥ 0 at
	// center — decreasing in distance.
	bad := Table{Entries: Matrix(Absolute{}, 3), Label: "bad"}
	// Flip one row to be decreasing: l(0, ·) = 3,2,1,0.
	for rr := 0; rr <= 3; rr++ {
		bad.Entries[0][rr] = rational.Int(int64(3 - rr))
	}
	if err := Validate(bad, 3); !errors.Is(err, ErrNotMonotone) {
		t.Errorf("decreasing loss accepted: %v", err)
	}
	if err := ValidateWeak(bad, 3); !errors.Is(err, ErrNotMonotone) {
		t.Errorf("decreasing loss accepted by weak: %v", err)
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	bad := Table{Entries: Matrix(Absolute{}, 2)}
	bad.Entries[1][1] = rational.Int(-1)
	if err := Validate(bad, 2); !errors.Is(err, ErrNotMonotone) {
		t.Errorf("negative loss accepted: %v", err)
	}
	if err := ValidateWeak(bad, 2); !errors.Is(err, ErrNotMonotone) {
		t.Errorf("negative loss accepted by weak: %v", err)
	}
	if bad.Name() != "table" {
		t.Error("default label wrong")
	}
}

// TestValidateErrors pins Validate's error for each way a table can
// break the assumption: the first violation found, in the order
// Validate checks them, is the one reported, with its text.
func TestValidateErrors(t *testing.T) {
	table := func(n int, set func(e [][]*big.Rat)) Table {
		tb := Table{Entries: Matrix(Absolute{}, n)}
		set(tb.Entries)
		return tb
	}
	for _, tc := range []struct {
		name string
		l    Function
		n    int
		want string
	}{
		{"negative diagonal", table(2, func(e [][]*big.Rat) { e[1][1] = rational.Int(-1) }), 2,
			"l(1,1) = -1 < 0"},
		{"negative below", table(3, func(e [][]*big.Rat) { e[2][0] = rational.Int(-1) }), 3,
			"negative loss l(2,·) at distance 2"},
		{"negative above", table(3, func(e [][]*big.Rat) { e[1][3] = rational.Int(-2) }), 3,
			"negative loss l(1,·) at distance 2"},
		{"negative before unequal", table(2, func(e [][]*big.Rat) { e[1][2] = rational.Int(-1) }), 2,
			"negative loss l(1,·) at distance 1"},
		{"unequal", Asymmetric{Over: rational.Int(2), Under: rational.Int(1)}, 4,
			"l(1,0)=1 != l(1,2)=2 but |i-r| equal"},
		{"decreasing one side", table(3, func(e [][]*big.Rat) { e[0][2] = rational.New(1, 2) }), 3,
			"l(0,·) decreases at distance 2 (1/2 < 1)"},
		{"decreasing both sides", table(4, func(e [][]*big.Rat) { e[2][0], e[2][4] = rational.Int(0), rational.Int(0) }), 4,
			"l(2,·) decreases at distance 2 (0 < 1)"},
		{"above the diagonal", table(2, func(e [][]*big.Rat) { e[0][0] = rational.Int(3) }), 2,
			"l(0,·) decreases at distance 1 (1 < 3)"},
	} {
		err := Validate(tc.l, tc.n)
		if !errors.Is(err, ErrNotMonotone) || err.Error() != ErrNotMonotone.Error()+": "+tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestMatrixMaterialization(t *testing.T) {
	m := Matrix(Squared{}, 3)
	if len(m) != 4 || len(m[0]) != 4 {
		t.Fatalf("shape %dx%d", len(m), len(m[0]))
	}
	if m[0][3].RatString() != "9" || m[2][2].Sign() != 0 {
		t.Error("entries wrong")
	}
}

// Property: all shipped symmetric losses satisfy l(i,r) == l(r', i')
// whenever |i−r| == |i'−r'|.
func TestQuickDistanceInvariance(t *testing.T) {
	losses := []Function{Absolute{}, Squared{}, ZeroOne{}, Deadband{Width: 2}, Power{K: 2}}
	f := func(i1, r1, i2, r2 uint8) bool {
		a, b := int(i1%10), int(r1%10)
		c, d := int(i2%10), int(r2%10)
		if abs(a-b) != abs(c-d) {
			return true
		}
		for _, l := range losses {
			if l.Loss(a, b).Cmp(l.Loss(c, d)) != 0 {
				return false
			}
		}
		return true
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
