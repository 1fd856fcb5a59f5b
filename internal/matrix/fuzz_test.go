package matrix

import (
	"math/big"
	"strings"
	"testing"

	"minimaxdp/internal/rational"
)

// parseRows reads a fuzz payload as a matrix: rows separated by ';',
// entries by spaces, each entry a rational.Parse string or "z" for a
// zero-value big.Rat (whose denominator is implicit). It reports false
// for an empty, ragged or unparsable payload.
func parseRows(s string) (*Matrix, bool) {
	var rows [][]*big.Rat
	for _, line := range strings.Split(s, ";") {
		var row []*big.Rat
		for _, f := range strings.Fields(line) {
			if f == "z" {
				row = append(row, new(big.Rat))
				continue
			}
			v, err := rational.Parse(f)
			if err != nil {
				return nil, false
			}
			row = append(row, v)
		}
		if len(row) == 0 || (len(rows) > 0 && len(row) != len(rows[0])) {
			return nil, false
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, false
	}
	return FromFunc(len(rows), len(rows[0]), func(i, j int) *big.Rat { return rows[i][j] }), true
}

// stochasticOracle is the definition IsStochastic implements, with
// every row summed as big.Rat.
func stochasticOracle(m *Matrix) bool {
	for i := 0; i < m.Rows(); i++ {
		sum := rational.Zero()
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j).Sign() < 0 {
				return false
			}
			sum.Add(sum, m.At(i, j))
		}
		if sum.Cmp(rational.One()) != 0 {
			return false
		}
	}
	return true
}

// stochasticSeeds cover both of IsStochastic's row paths: rows whose
// denominators all divide the largest (the integer sum), rows where
// one does not (the big.Rat fallback), negative and zero-value
// entries, and rows 1/10⁹⁰ away from summing to 1.
var stochasticSeeds = []string{
	"1/2 1/2; 1/4 3/4",
	"1/2 1/3",
	"3/2 -1/2",
	"1/2 -0 1/2",
	"z 1",
	"z z; 1 z",
	"1/4 1/6 1/3 1/4",
	"1/4 1/6 1/3 1/5",
	"1/2 1/2; 1/4 1/6 ",
	"1/2 " + strings.Repeat("0", 89) + "/1" + strings.Repeat("0", 90),
	"1/2 5" + strings.Repeat("0", 88) + "1/1" + strings.Repeat("0", 90),
	"1/2 4" + strings.Repeat("9", 89) + "/1" + strings.Repeat("0", 90),
	"1/3 1/3 1/3; 1/7 6/7",
	"0.25 0.75; 1 0",
}

func TestIsStochasticMatchesOracle(t *testing.T) {
	want := map[string]bool{
		"1/2 1/2; 1/4 3/4": true,
		"1/4 1/6 1/3 1/4":  true, // 4 does not divide 6: the fallback
		"1/4 1/6 1/3 1/5":  false,
		"z 1":              true,
		"1/2 -0 1/2":       true,
		"3/2 -1/2":         false,
		"1/2 5" + strings.Repeat("0", 88) + "1/1" + strings.Repeat("0", 90): false, // 1 + 1/10⁹⁰
		"1/2 4" + strings.Repeat("9", 89) + "/1" + strings.Repeat("0", 90):  false, // 1 − 1/10⁹⁰
	}
	for _, s := range stochasticSeeds {
		m, ok := parseRows(s)
		if !ok {
			if _, pinned := want[s]; pinned {
				t.Errorf("%q does not parse", s)
			}
			continue
		}
		got, oracle := m.IsStochastic(), stochasticOracle(m)
		if got != oracle {
			t.Errorf("%q: IsStochastic = %v, big.Rat sum says %v", s, got, oracle)
		}
		if w, pinned := want[s]; pinned && got != w {
			t.Errorf("%q: IsStochastic = %v, want %v", s, got, w)
		}
	}
}

// TestIsStochasticRowPaths pins which rows take the integer sum.
func TestIsStochasticRowPaths(t *testing.T) {
	for _, c := range []struct {
		row     string
		decided bool
	}{
		{"1/2 1/4 1/4", true},
		{"z 1", true},
		{"1/4 1/6 1/3 1/4", false},
	} {
		m, ok := parseRows(c.row)
		if !ok {
			t.Fatalf("%q does not parse", c.row)
		}
		row := m.a
		d := row[0].Denom()
		for _, e := range row {
			if e.Denom().Cmp(d) > 0 {
				d = e.Denom()
			}
		}
		if _, decided := sumsToDenom(row, d); decided != c.decided {
			t.Errorf("%q: integer sum decided = %v, want %v", c.row, decided, c.decided)
		}
	}
}

// FuzzIsStochastic checks IsStochastic, whose rows mostly take the
// integer-sum path, against a plain big.Rat sum of every row.
func FuzzIsStochastic(f *testing.F) {
	for _, s := range stochasticSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 4096 {
			return
		}
		m, ok := parseRows(s)
		if !ok {
			return
		}
		if got, want := m.IsStochastic(), stochasticOracle(m); got != want {
			t.Fatalf("%q: IsStochastic = %v, big.Rat sum says %v", s, got, want)
		}
	})
}
