// Package baseline builds the alternative mechanisms Theorem 1's
// universal-optimality claim is measured against. The geometric
// mechanism G_{n,α} (mechanism.Geometric) is the paper's hero; this
// package adds the named neighbors from the related literature as
// exact-rational constructions on {0..n}:
//
//   - Staircase: the Geng–Viswanath staircase mechanism, discretized
//     as banded geometric noise — the noise PMF is constant on bands
//     of `width` consecutive magnitudes and decays by a factor α per
//     band, Pr[D=d] ∝ α^⌈|d|/width⌉ — with the tails clamped onto the
//     endpoints 0 and n exactly as G_{n,α} clamps its tails. Width 1
//     reproduces G_{n,α} identically; wider steps trade fidelity near
//     the truth for heavier shoulders. Staircase is exactly α-DP for
//     every width.
//
//   - TruncatedLaplace: the discrete Laplace (two-sided geometric)
//     distribution truncated to {0..n} and renormalized per row —
//     Pr[z|i] = α^|z−i| / Σ_w α^|w−i|. This is the classic "truncate
//     and renormalize" construction practitioners reach for first,
//     and it is deliberately NOT exactly α-DP: renormalization gives
//     interior rows smaller mass sums than boundary rows, so adjacent
//     likelihood ratios overshoot α. Compare entries expose its true
//     privacy level via mechanism.BestAlpha so the gap tables can
//     show what the shortcut actually costs.
//
// All constructions are exact big.Rat arithmetic end-to-end and
// re-validated through mechanism.New.
package baseline

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// Kind names a baseline family on the wire.
type Kind string

const (
	// Geometric is G_{n,α} itself, included so a compare request can
	// score the paper's mechanism beside the alternatives.
	Geometric Kind = "geometric"
	// KindStaircase is the banded-geometric staircase family; its
	// Width parameter is the band width (default 2 — width 1 is
	// exactly G_{n,α} and therefore redundant as a default).
	KindStaircase Kind = "staircase"
	// KindLaplace is the truncated-and-renormalized discrete Laplace.
	KindLaplace Kind = "laplace"
)

// Spec identifies one baseline mechanism. Width is only meaningful
// for the staircase family (0 means the family default).
type Spec struct {
	Kind  Kind
	Width int
}

// Kinds returns the canonical baseline kind names, the list quoted by
// invalid_argument error envelopes.
func Kinds() []string {
	return []string{string(Geometric), string(KindStaircase), string(KindLaplace)}
}

// ParseSpec parses a wire-facing baseline name: a kind, optionally
// with a width parameter after a colon ("staircase:3").
func ParseSpec(s string) (Spec, error) {
	name, param := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, param = s[:i], s[i+1:]
	}
	switch Kind(name) {
	case Geometric, KindLaplace:
		if param != "" {
			return Spec{}, fmt.Errorf("baseline: %q takes no parameter (got %q)", name, param)
		}
		return Spec{Kind: Kind(name)}, nil
	case KindStaircase:
		if param == "" {
			return Spec{Kind: KindStaircase}, nil
		}
		w, err := strconv.Atoi(param)
		if err != nil || w < 1 {
			return Spec{}, fmt.Errorf("baseline: staircase width must be a positive integer, got %q", param)
		}
		return Spec{Kind: KindStaircase, Width: w}, nil
	}
	return Spec{}, fmt.Errorf("baseline: unknown baseline %q (want one of %v)", name, Kinds())
}

// String renders the spec in its canonical wire form (the form
// ParseSpec round-trips): width is printed only when it differs from
// the family default.
func (s Spec) String() string {
	if s.Kind == KindStaircase && s.Width != 0 && s.Width != defaultStaircaseWidth {
		return string(s.Kind) + ":" + strconv.Itoa(s.Width)
	}
	return string(s.Kind)
}

const defaultStaircaseWidth = 2

// normalize resolves defaults so equal mechanisms have equal specs.
func (s Spec) normalize() (Spec, error) {
	switch s.Kind {
	case Geometric, KindLaplace:
		if s.Width != 0 {
			return Spec{}, fmt.Errorf("baseline: %q takes no width (got %d)", s.Kind, s.Width)
		}
		return s, nil
	case KindStaircase:
		if s.Width == 0 {
			s.Width = defaultStaircaseWidth
		}
		if s.Width < 1 {
			return Spec{}, fmt.Errorf("baseline: staircase width must be ≥ 1, got %d", s.Width)
		}
		return s, nil
	}
	return Spec{}, fmt.Errorf("baseline: unknown baseline %q (want one of %v)", s.Kind, Kinds())
}

// Build constructs the baseline mechanism on {0..n} at privacy level
// alpha.
func (s Spec) Build(n int, alpha *big.Rat) (*mechanism.Mechanism, error) {
	ns, err := s.normalize()
	if err != nil {
		return nil, err
	}
	switch ns.Kind {
	case Geometric:
		return mechanism.Geometric(n, alpha)
	case KindStaircase:
		return Staircase(n, alpha, ns.Width)
	case KindLaplace:
		return TruncatedLaplace(n, alpha)
	}
	return nil, fmt.Errorf("baseline: unknown baseline %q", ns.Kind)
}

// DefaultSet is the baseline set a compare request gets when it names
// none: the paper's mechanism plus both neighbors.
func DefaultSet() []Spec {
	return []Spec{{Kind: Geometric}, {Kind: KindStaircase}, {Kind: KindLaplace}}
}

// Canonicalize normalizes, deduplicates, and sorts a baseline set so
// behaviorally equal sets share one cache identity (and one response
// order). An empty set means DefaultSet.
func Canonicalize(specs []Spec) ([]Spec, error) {
	if len(specs) == 0 {
		specs = DefaultSet()
	}
	seen := make(map[Spec]bool, len(specs))
	out := make([]Spec, 0, len(specs))
	for _, s := range specs {
		ns, err := s.normalize()
		if err != nil {
			return nil, err
		}
		if seen[ns] {
			continue
		}
		seen[ns] = true
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Width < out[j].Width
	})
	return out, nil
}

// Staircase builds the width-w banded-geometric staircase mechanism
// on {0..n}: output z = clamp(i + D, 0, n) where the noise PMF is
//
//	Pr[D = d] = c · α^⌈|d|/w⌉,   c = (1−α) / (1−α+2wα),
//
// constant on each band of w consecutive magnitudes. Clamping
// collapses the infinite tails onto 0 and n via the exact tail sums
//
//	T(k) = Σ_{m≥k} α^⌈m/w⌉
//	     = (j₀w − k + 1)·α^{j₀} + w·α^{j₀+1}/(1−α),  j₀ = ⌈k/w⌉, k ≥ 1,
//
// (the first term counts the remainder of band j₀, the second sums
// the full bands after it). Width 1 makes every band a single
// magnitude and the construction collapses to G_{n,α} exactly; the
// per-band decay factor α makes the mechanism exactly α-DP for every
// width. Requires α ∈ (0,1) like mechanism.Geometric.
func Staircase(n int, alpha *big.Rat, w int) (*mechanism.Mechanism, error) {
	if n < 0 {
		return nil, fmt.Errorf("baseline: n must be ≥ 0, got %d", n)
	}
	if w < 1 {
		return nil, fmt.Errorf("baseline: staircase width must be ≥ 1, got %d", w)
	}
	if alpha.Sign() <= 0 || alpha.Cmp(rational.One()) >= 0 {
		return nil, fmt.Errorf("baseline: α must be in (0,1), got %s", alpha.RatString())
	}
	one := rational.One()
	oneMinus := rational.Sub(one, alpha)
	// c = (1−α) / (1−α + 2wα).
	wRat := rational.Int(int64(w))
	denom := rational.Add(oneMinus, rational.Mul(rational.Int(2), rational.Mul(wRat, alpha)))
	c := rational.Div(oneMinus, denom)
	// Band powers α^⌈k/w⌉ for every displacement magnitude we touch,
	// plus the closed-form tail sums for the clamped endpoints.
	pow := func(j int) *big.Rat { return rational.Pow(alpha, j) }
	band := func(k int) *big.Rat {
		if k == 0 {
			return one
		}
		return pow((k + w - 1) / w)
	}
	// tail(k) = Σ_{m≥k} α^⌈m/w⌉ (k ≥ 1), closed form above.
	tail := func(k int) *big.Rat {
		j0 := (k + w - 1) / w
		first := rational.Mul(rational.Int(int64(j0*w-k+1)), pow(j0))
		rest := rational.Div(rational.Mul(wRat, pow(j0+1)), oneMinus)
		return rational.Add(first, rest)
	}
	rows := make([][]*big.Rat, n+1)
	for i := 0; i <= n; i++ {
		row := make([]*big.Rat, n+1)
		for z := 0; z <= n; z++ {
			var mass *big.Rat
			switch {
			case z == 0 && i > 0:
				// All displacements d ≤ −i collapse here.
				mass = tail(i)
			case z == n && i < n:
				mass = tail(n - i)
			default:
				d := z - i
				if d < 0 {
					d = -d
				}
				mass = rational.Clone(band(d))
				// Reaching here with z == 0 means i == 0 (and with
				// z == n means i == n): the endpoint absorbs its own
				// outward tail. On a single-point domain both apply.
				if z == 0 {
					mass = rational.Add(mass, tail(1))
				}
				if z == n {
					mass = rational.Add(mass, tail(1))
				}
			}
			row[z] = rational.Mul(c, mass)
		}
		rows[i] = row
	}
	return mechanismFromRows(rows)
}

// TruncatedLaplace builds the truncated-and-renormalized discrete
// Laplace mechanism on {0..n}:
//
//	Pr[z | i] = α^|z−i| / N_i,   N_i = Σ_{w=0..n} α^|w−i|.
//
// Because N_i is larger for interior i than for boundary i, adjacent
// likelihood ratios exceed α and the mechanism is NOT exactly α-DP —
// that is the point of carrying it as a baseline. Use
// mechanism.BestAlpha to read off the privacy level it actually
// achieves. Requires α ∈ (0,1).
func TruncatedLaplace(n int, alpha *big.Rat) (*mechanism.Mechanism, error) {
	if n < 0 {
		return nil, fmt.Errorf("baseline: n must be ≥ 0, got %d", n)
	}
	if alpha.Sign() <= 0 || alpha.Cmp(rational.One()) >= 0 {
		return nil, fmt.Errorf("baseline: α must be in (0,1), got %s", alpha.RatString())
	}
	// α^k for k = 0..n, computed once.
	pows := make([]*big.Rat, n+1)
	pows[0] = rational.One()
	for k := 1; k <= n; k++ {
		pows[k] = rational.Mul(pows[k-1], alpha)
	}
	rows := make([][]*big.Rat, n+1)
	for i := 0; i <= n; i++ {
		norm := rational.Zero()
		for z := 0; z <= n; z++ {
			d := z - i
			if d < 0 {
				d = -d
			}
			norm.Add(norm, pows[d])
		}
		row := make([]*big.Rat, n+1)
		for z := 0; z <= n; z++ {
			d := z - i
			if d < 0 {
				d = -d
			}
			row[z] = rational.Div(pows[d], norm)
		}
		rows[i] = row
	}
	return mechanismFromRows(rows)
}

// mechanismFromRows funnels a probability table through
// mechanism.Adopt so every baseline is re-validated as row-stochastic.
func mechanismFromRows(rows [][]*big.Rat) (*mechanism.Mechanism, error) {
	n := len(rows) - 1
	m := matrix.New(n+1, n+1)
	for i, row := range rows {
		for z, v := range row {
			m.Set(i, z, v)
		}
	}
	mech, err := mechanism.Adopt(m)
	if err != nil {
		return nil, fmt.Errorf("baseline: construction not row-stochastic: %w", err)
	}
	return mech, nil
}
