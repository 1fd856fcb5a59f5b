// Package matrix implements dense matrices over exact rationals
// (*big.Rat) together with the linear-algebra operations the paper's
// proofs rely on: multiplication, Gauss–Jordan inversion, determinants
// (fraction-free Bareiss and cofactor expansion), Cramer's-rule column
// replacement, and the stochasticity predicates from Section 3 of the
// paper (row-stochastic and generalized row-stochastic matrices).
package matrix

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"minimaxdp/internal/rational"
)

// Matrix is a dense rows×cols matrix of exact rationals.
// The zero value is not usable; construct with New, Identity, FromRows
// or FromStrings.
type Matrix struct {
	rows, cols int
	a          []*big.Rat // row-major, len rows*cols
}

// ErrSingular is returned when an inverse or solve is requested for a
// singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// New returns a rows×cols zero matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	a := make([]*big.Rat, rows*cols)
	for i := range a {
		a[i] = rational.Zero()
	}
	return &Matrix{rows: rows, cols: cols, a: a}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, rational.One())
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rational rows.
// The entries are deep-copied.
func FromRows(rows [][]*big.Rat) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: empty input")
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: ragged input at row %d (%d vs %d cols)", i, len(r), cols)
		}
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m, nil
}

// FromStrings builds a matrix from string entries such as "3/4".
// Useful in tests and for transcribing the paper's tables verbatim.
func FromStrings(rows [][]string) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: empty input")
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: ragged input at row %d", i)
		}
		for j, s := range r {
			v, err := rational.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("matrix: entry (%d,%d): %w", i, j, err)
			}
			m.a[i*cols+j] = v
		}
	}
	return m, nil
}

// MustFromStrings is FromStrings that panics on error, for literals.
func MustFromStrings(rows [][]string) *Matrix {
	m, err := FromStrings(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at (i,j). The returned value must not be
// mutated by the caller; use Set to write.
func (m *Matrix) At(i, j int) *big.Rat {
	m.check(i, j)
	//dpvet:ignore ratmutate documented borrow: At is the hot read path (simplex pivots call it in inner loops) and cloning here would dominate; the no-mutation contract is in the doc comment and Set copies on write
	return m.a[i*m.cols+j]
}

// Set stores a deep copy of v at (i,j).
func (m *Matrix) Set(i, j int, v *big.Rat) {
	m.check(i, j)
	m.a[i*m.cols+j] = rational.Clone(v)
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, a: make([]*big.Rat, len(m.a))}
	for i, v := range m.a {
		out.a[i] = rational.Clone(v)
	}
	return out
}

// Row returns a deep copy of row i.
func (m *Matrix) Row(i int) []*big.Rat {
	out := make([]*big.Rat, m.cols)
	for j := 0; j < m.cols; j++ {
		out[j] = rational.Clone(m.At(i, j))
	}
	return out
}

// Col returns a deep copy of column j.
func (m *Matrix) Col(j int) []*big.Rat {
	out := make([]*big.Rat, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = rational.Clone(m.At(i, j))
	}
	return out
}

// Equal reports whether m and o have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.a {
		if m.a[i].Cmp(o.a[i]) != 0 {
			return false
		}
	}
	return true
}

// Mul returns the product m·o. The dot products run on the
// rational.Hval ladder (Small → big.Rat), so mostly-tiny
// operands — the common case for mechanism transition products — stay
// in machine words.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	// Lift both operands onto the ladder once; big-tier entries are
	// aliased, never copied, and Hval ops never mutate operands.
	left := make([]rational.Hval, len(m.a))
	for i, v := range m.a {
		left[i] = rational.HvalFromRat(v)
	}
	right := make([]rational.Hval, len(o.a))
	for i, v := range o.a {
		right[i] = rational.HvalFromRat(v)
	}
	acc := make([]rational.Hval, m.rows*o.cols)
	var h rational.HybridStats
	var zero rational.Hval
	// ikj loop order with a zero-skip on the left factor: products with
	// sparse left operands (e.g. the tridiagonal closed-form inverse of
	// the geometric mechanism) cost O(nnz·cols) instead of O(n³).
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			aik := left[i*m.cols+k]
			if aik.IsZero() {
				continue
			}
			// acc += aik·b is one fused FMS with the negated left
			// factor: a single normalization per update instead of a
			// multiply followed by an add.
			neg := h.SubH(zero, aik)
			orow := right[k*o.cols:]
			for j := 0; j < o.cols; j++ {
				if orow[j].IsZero() {
					continue
				}
				idx := i*o.cols + j
				acc[idx] = h.FMS(acc[idx], neg, orow[j])
			}
		}
	}
	out := New(m.rows, o.cols)
	for idx, v := range acc {
		if v.IsZero() {
			continue
		}
		out.a[idx] = rational.Clone(v.Rat())
	}
	return out, nil
}

// MulVec returns the product m·v for a column vector v.
func (m *Matrix) MulVec(v []*big.Rat) ([]*big.Rat, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(v))
	}
	out := rational.Vector(m.rows)
	tmp := rational.Zero()
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			tmp.Mul(m.a[i*m.cols+k], v[k])
			out[i].Add(out[i], tmp)
		}
	}
	return out, nil
}

// VecMul returns the product vᵀ·m for a row vector v.
func (m *Matrix) VecMul(v []*big.Rat) ([]*big.Rat, error) {
	if m.rows != len(v) {
		return nil, fmt.Errorf("matrix: cannot multiply vector of length %d by %dx%d", len(v), m.rows, m.cols)
	}
	out := rational.Vector(m.cols)
	tmp := rational.Zero()
	for j := 0; j < m.cols; j++ {
		for i := 0; i < m.rows; i++ {
			tmp.Mul(v[i], m.a[i*m.cols+j])
			out[j].Add(out[j], tmp)
		}
	}
	return out, nil
}

// Add returns m+o.
func (m *Matrix) Add(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("matrix: cannot add %dx%d and %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i := range out.a {
		out.a[i].Add(out.a[i], o.a[i])
	}
	return out, nil
}

// Sub returns m−o.
func (m *Matrix) Sub(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("matrix: cannot subtract %dx%d and %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i := range out.a {
		out.a[i].Sub(out.a[i], o.a[i])
	}
	return out, nil
}

// Scale returns c·m.
func (m *Matrix) Scale(c *big.Rat) *Matrix {
	out := m.Clone()
	for i := range out.a {
		out.a[i].Mul(out.a[i], c)
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// ReplaceCol returns a copy of m with column j replaced by v
// (Cramer's-rule helper; the paper's G(i,x) notation).
func (m *Matrix) ReplaceCol(j int, v []*big.Rat) (*Matrix, error) {
	if len(v) != m.rows {
		return nil, fmt.Errorf("matrix: column length %d does not match %d rows", len(v), m.rows)
	}
	if j < 0 || j >= m.cols {
		return nil, fmt.Errorf("matrix: column %d out of range", j)
	}
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		out.Set(i, j, v[i])
	}
	return out, nil
}

// Inverse returns m⁻¹ via exact Gauss–Jordan elimination with partial
// (first-nonzero) pivoting. Returns ErrSingular if m is singular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d", m.rows, m.cols)
	}
	n := m.rows
	// Augmented [A | I] worked in place.
	aug := make([][]*big.Rat, n)
	for i := 0; i < n; i++ {
		aug[i] = make([]*big.Rat, 2*n)
		for j := 0; j < n; j++ {
			aug[i][j] = rational.Clone(m.At(i, j))
			if i == j {
				aug[i][n+j] = rational.One()
			} else {
				aug[i][n+j] = rational.Zero()
			}
		}
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		inv := new(big.Rat).Inv(aug[col][col])
		for j := 0; j < 2*n; j++ {
			aug[col][j].Mul(aug[col][j], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || aug[r][col].Sign() == 0 {
				continue
			}
			factor := rational.Clone(aug[r][col])
			tmp := rational.Zero()
			for j := 0; j < 2*n; j++ {
				tmp.Mul(factor, aug[col][j])
				aug[r][j].Sub(aug[r][j], tmp)
			}
		}
	}
	out := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.a[i*n+j] = aug[i][n+j]
		}
	}
	return out, nil
}

// Solve returns the solution x of m·x = b for square nonsingular m.
func (m *Matrix) Solve(b []*big.Rat) ([]*big.Rat, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b)
}

// Det returns det(m) using fraction-free Bareiss elimination, which
// keeps intermediate values as exact integers of the common
// denominator and is much faster than cofactor expansion for n ≳ 5.
// The elimination runs on the rational.Hval ladder (Small → big.Rat):
// pivots, row factors, and the fused update
// w[r][j] −= factor·w[col][j] stay in machine words while entries fit.
func (m *Matrix) Det() (*big.Rat, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: determinant of non-square %dx%d", m.rows, m.cols)
	}
	n := m.rows
	if n == 1 {
		return rational.Clone(m.At(0, 0)), nil
	}
	// Work on a lifted copy; fraction elimination over Hval is exact
	// and the ladder is a representation detail. Track sign from row
	// swaps.
	w := make([][]rational.Hval, n)
	for i := 0; i < n; i++ {
		w[i] = make([]rational.Hval, n)
		for j := 0; j < n; j++ {
			w[i][j] = rational.HvalFromRat(m.a[i*n+j])
		}
	}
	var h rational.HybridStats
	sign := 1
	det := rational.HvalFromRat(rational.One())
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if !w[r][col].IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return rational.Zero(), nil
		}
		if pivot != col {
			w[col], w[pivot] = w[pivot], w[col]
			sign = -sign
		}
		det = h.Mul(det, w[col][col])
		for r := col + 1; r < n; r++ {
			if w[r][col].IsZero() {
				continue
			}
			factor := h.Quo(w[r][col], w[col][col])
			// Column col of row r is never read again, so start the
			// fused updates at col+1.
			for j := col + 1; j < n; j++ {
				if w[col][j].IsZero() {
					continue
				}
				w[r][j] = h.FMS(w[r][j], factor, w[col][j])
			}
		}
	}
	out := rational.Clone(det.Rat())
	if sign < 0 {
		out.Neg(out)
	}
	return out, nil
}

// DetCofactor returns det(m) by recursive cofactor expansion along the
// first row. Exponential time; retained as an oracle for tests and the
// ablation benchmark.
func (m *Matrix) DetCofactor() (*big.Rat, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: determinant of non-square %dx%d", m.rows, m.cols)
	}
	return detCofactor(m), nil
}

func detCofactor(m *Matrix) *big.Rat {
	n := m.rows
	if n == 1 {
		return rational.Clone(m.At(0, 0))
	}
	if n == 2 {
		ad := rational.Mul(m.At(0, 0), m.At(1, 1))
		bc := rational.Mul(m.At(0, 1), m.At(1, 0))
		return ad.Sub(ad, bc)
	}
	out := rational.Zero()
	for j := 0; j < n; j++ {
		if m.At(0, j).Sign() == 0 {
			continue
		}
		minor := New(n-1, n-1)
		for i := 1; i < n; i++ {
			cj := 0
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				minor.Set(i-1, cj, m.At(i, k))
				cj++
			}
		}
		term := rational.Mul(m.At(0, j), detCofactor(minor))
		if j%2 == 1 {
			term.Neg(term)
		}
		out.Add(out, term)
	}
	return out
}

// RowSums returns the vector of row sums.
func (m *Matrix) RowSums() []*big.Rat {
	out := rational.Vector(m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out[i].Add(out[i], m.At(i, j))
		}
	}
	return out
}

// IsStochastic reports whether m is row-stochastic: every entry is
// non-negative and every row sums to exactly 1.
func (m *Matrix) IsStochastic() bool {
	one := rational.One()
	for i := 0; i < m.rows; i++ {
		sum := rational.Zero()
		for j := 0; j < m.cols; j++ {
			e := m.At(i, j)
			if e.Sign() < 0 {
				return false
			}
			sum.Add(sum, e)
		}
		if sum.Cmp(one) != 0 {
			return false
		}
	}
	return true
}

// IsGeneralizedStochastic reports whether every row sums to exactly 1,
// with no sign condition on individual entries (the paper's
// "generalized row stochastic" matrices, Section 3).
func (m *Matrix) IsGeneralizedStochastic() bool {
	one := rational.One()
	for _, s := range m.RowSums() {
		if s.Cmp(one) != 0 {
			return false
		}
	}
	return true
}

// IsNonNegative reports whether every entry is ≥ 0.
func (m *Matrix) IsNonNegative() bool {
	for _, v := range m.a {
		if v.Sign() < 0 {
			return false
		}
	}
	return true
}

// String renders m with exact rational entries, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	widths := make([]int, m.cols)
	cells := make([][]string, m.rows)
	for i := 0; i < m.rows; i++ {
		cells[i] = make([]string, m.cols)
		for j := 0; j < m.cols; j++ {
			s := m.At(i, j).RatString()
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[j], cells[i][j])
		}
		b.WriteString("]")
		if i < m.rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
