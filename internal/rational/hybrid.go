package rational

import (
	"math/big"
	"math/bits"
)

// Hval is a hybrid exact rational scalar: a three-tier ladder
// Small → Wide → big.Rat. Arithmetic runs on the narrowest tier the
// operands fit — int64 words while values are tiny, two 64-bit words
// when they outgrow that, and only values past 128 bits pay big.Rat
// allocation. Every fallback is exact, never approximate: the ladder
// changes the representation of a value, never the value, and results
// demote back down as soon as they fit (a big-path result that
// reduces to fit 64 or 128 bits re-enters the fast tiers).
//
// Hvals are immutable — operations return fresh values and never
// mutate operands, so aliasing a shared *big.Rat (e.g. a standardForm
// matrix entry) into the big tier is safe. The zero value is 0 on the
// Small tier.
//
// Hval started life as the `hval` hybrid private to internal/lp's
// revised simplex; it lives here so the matrix and mechanism hot
// loops share the ladder without an import cycle.
type Hval struct {
	s    Small
	w    Wide
	r    *big.Rat // non-nil iff tier == tierBig
	tier uint8
}

const (
	tierSmall = iota // value in s (the zero value's tier)
	tierWide         // value in w
	tierBig          // value in r
)

// Exported tier tags for Tier: which rung of the ladder currently
// holds a value. The tier is a representation detail — it never
// changes the value — but tests pin the demotion/promotion invariants
// and telemetry reports the mix.
const (
	TierSmall = tierSmall
	TierWide  = tierWide
	TierBig   = tierBig
)

// Tier reports the rung currently holding the value.
func (a Hval) Tier() int { return int(a.tier) }

// HvalFromRat wraps v on the narrowest tier it fits. When v needs the
// big tier it is aliased, not copied — callers keep the no-mutation
// contract.
func HvalFromRat(v *big.Rat) Hval {
	if s, ok := SmallFromRat(v); ok {
		return Hval{s: s}
	}
	if w, ok := WideFromRat(v); ok {
		return Hval{w: w, tier: tierWide}
	}
	return Hval{r: v, tier: tierBig}
}

// hvalFromWide wraps a Wide result, demoting to the Small tier when
// both components fit one word.
func hvalFromWide(w Wide) Hval {
	if s, ok := w.Small(); ok {
		return Hval{s: s}
	}
	return Hval{w: w, tier: tierWide}
}

// wide returns the value as a Wide; the caller guarantees
// tier != tierBig (a Small always widens exactly).
func (a Hval) wide() Wide {
	if a.tier == tierWide {
		return a.w
	}
	return WideFromSmall(a.s)
}

// Rat returns the exact value as a *big.Rat. The result aliases the
// big-tier value and must not be mutated by the caller.
func (a Hval) Rat() *big.Rat {
	switch a.tier {
	case tierBig:
		//dpvet:ignore ratmutate documented borrow: Rat is the hot exit of the hybrid kernels (every big-path FMS/Quo calls it); Hvals are immutable by contract and every escaping consumer (extractFromCols, solution, matrix clones) copies on write
		return a.r
	case tierWide:
		return a.w.Rat()
	}
	return a.s.Rat()
}

// IsZero reports whether a == 0.
func (a Hval) IsZero() bool {
	switch a.tier {
	case tierBig:
		return a.r.Sign() == 0
	case tierWide:
		return a.w.IsZero()
	}
	return a.s.IsZero()
}

// Sign returns -1, 0, or +1.
func (a Hval) Sign() int {
	switch a.tier {
	case tierBig:
		return a.r.Sign()
	case tierWide:
		return a.w.Sign()
	}
	return a.s.Sign()
}

// Cmp compares two Hvals exactly. Up through the Wide tier it uses
// fixed-width cross products and allocates nothing.
func (a Hval) Cmp(b Hval) int {
	if a.tier == tierSmall && b.tier == tierSmall {
		return a.s.Cmp(b.s)
	}
	if a.tier != tierBig && b.tier != tierBig {
		return a.wide().Cmp(b.wide())
	}
	return a.Rat().Cmp(b.Rat())
}

// Bits returns the bit length of the wider component of a — the
// entry-growth measure the refactorization trigger integrates over
// eta chains (≤ 63 on the Small tier, ≤ 128 on Wide).
func (a Hval) Bits() int {
	switch a.tier {
	case tierBig:
		nb := a.r.Num().BitLen()
		if db := a.r.Denom().BitLen(); db > nb {
			return db
		}
		return nb
	case tierWide:
		return a.w.Bits()
	}
	num := a.s.Num()
	var un uint64
	if num < 0 {
		un = negAbs64(num)
	} else {
		un = uint64(num)
	}
	nb := bits.Len64(un)
	if db := bits.Len64(uint64(a.s.Den())); db > nb {
		return db
	}
	return nb
}

// intsInto loads a's numerator and denominator as big.Ints without
// any normalization work: the Small and Wide tiers materialize into
// the caller-provided scratch slots n and d, while the big tier
// aliases the Rat's own components (read-only — callers must not
// mutate the returned Ints). The denominator is always positive.
func (a Hval) intsInto(n, d *big.Int) (num, den *big.Int) {
	switch a.tier {
	case tierBig:
		return a.r.Num(), a.r.Denom()
	case tierWide:
		setU128(n, a.w.nhi, a.w.nlo)
		if a.w.neg {
			n.Neg(n)
		}
		dhi, dlo := a.w.den()
		setU128(d, dhi, dlo)
		return n, d
	}
	n.SetInt64(a.s.Num())
	d.SetInt64(a.s.Den())
	return n, d
}

// hvalFromBigParts normalizes num/den (den > 0 required, num/den need
// not be coprime) into an Hval in one pass: a single SetFrac GCD,
// then the standard narrowing checks. Scratch-backed inputs are
// copied, never aliased.
func hvalFromBigParts(num, den *big.Int) Hval {
	if num.Sign() == 0 {
		return Hval{}
	}
	return HvalFromRat(new(big.Rat).SetFrac(num, den))
}

// bigScratch holds the reusable big.Int temporaries behind the fused
// big-tier kernels, so a hot fms/quo chain allocates only for results
// that genuinely stay past 128 bits.
type bigScratch struct {
	x [6]big.Int // operand extraction slots
	t [3]big.Int // product/accumulator temporaries
}

// HybridStats counts hybrid-kernel operations by the tier that served
// them: SmallOps the int64 fast-path hits, WideOps the 128-bit tier,
// BigOps the exact big.Rat fallbacks (including operations with an
// operand already in big form). The tier mix is the ladder hit rate
// exported through lp.SolveStats and the matrix/mechanism counters.
// The counter fields are plain ints: telemetry, not rational
// arithmetic. A HybridStats also carries the lazily-built scratch
// space for the fused big-tier kernels, so it must not be shared
// across goroutines.
type HybridStats struct {
	SmallOps, WideOps, BigOps int

	scr *bigScratch
}

// scratch returns the receiver's temporary pool, building it on first
// big-tier use.
func (h *HybridStats) scratch() *bigScratch {
	if h.scr == nil {
		h.scr = new(bigScratch)
	}
	return h.scr
}

// Add accumulates o into h (for folding per-call stats into
// longer-lived counters).
func (h *HybridStats) Add(o HybridStats) {
	h.SmallOps += o.SmallOps
	h.WideOps += o.WideOps
	h.BigOps += o.BigOps
}

// FMS returns a − b·c.
//
// The big path is fused: it assembles the result as one numerator and
// one denominator over big.Int products and normalizes exactly once,
// rather than paying a big.Rat normalization GCD per intermediate
// (plus one per Wide→Rat operand conversion). On the entry-growth
// profiles that motivated the Wide tier this is the difference
// between one Lehmer GCD per kernel call and up to five.
func (h *HybridStats) FMS(a, b, c Hval) Hval {
	if a.tier == tierSmall && b.tier == tierSmall && c.tier == tierSmall {
		if v, ok := a.s.FMS(b.s, c.s); ok {
			h.SmallOps++
			return Hval{s: v}
		}
	}
	if a.tier != tierBig && b.tier != tierBig && c.tier != tierBig {
		if v, ok := a.wide().FMS(b.wide(), c.wide()); ok {
			h.WideOps++
			return hvalFromWide(v)
		}
	}
	h.BigOps++
	s := h.scratch()
	an, ad := a.intsInto(&s.x[0], &s.x[1])
	bn, bd := b.intsInto(&s.x[2], &s.x[3])
	cn, cd := c.intsInto(&s.x[4], &s.x[5])
	// num = an·(bd·cd) − (bn·cn)·ad over den = ad·(bd·cd).
	s.t[0].Mul(bd, cd)
	s.t[1].Mul(bn, cn)
	s.t[1].Mul(&s.t[1], ad)
	s.t[2].Mul(an, &s.t[0])
	s.t[2].Sub(&s.t[2], &s.t[1])
	s.t[0].Mul(&s.t[0], ad)
	return hvalFromBigParts(&s.t[2], &s.t[0])
}

// Quo returns a/b for b != 0.
func (h *HybridStats) Quo(a, b Hval) Hval {
	if a.tier == tierSmall && b.tier == tierSmall {
		if v, ok := a.s.Quo(b.s); ok {
			h.SmallOps++
			return Hval{s: v}
		}
	}
	if a.tier != tierBig && b.tier != tierBig {
		if v, ok := a.wide().Quo(b.wide()); ok {
			h.WideOps++
			return hvalFromWide(v)
		}
	}
	h.BigOps++
	s := h.scratch()
	an, ad := a.intsInto(&s.x[0], &s.x[1])
	bn, bd := b.intsInto(&s.x[2], &s.x[3])
	// a/b = (an·bd)/(ad·bn); SetFrac moves bn's sign to the numerator.
	s.t[0].Mul(an, bd)
	s.t[1].Mul(ad, bn)
	if s.t[1].Sign() < 0 {
		s.t[0].Neg(&s.t[0])
		s.t[1].Neg(&s.t[1])
	}
	return hvalFromBigParts(&s.t[0], &s.t[1])
}

// Mul returns a·b.
func (h *HybridStats) Mul(a, b Hval) Hval {
	if a.tier == tierSmall && b.tier == tierSmall {
		if v, ok := a.s.Mul(b.s); ok {
			h.SmallOps++
			return Hval{s: v}
		}
	}
	if a.tier != tierBig && b.tier != tierBig {
		if v, ok := a.wide().Mul(b.wide()); ok {
			h.WideOps++
			return hvalFromWide(v)
		}
	}
	h.BigOps++
	s := h.scratch()
	an, ad := a.intsInto(&s.x[0], &s.x[1])
	bn, bd := b.intsInto(&s.x[2], &s.x[3])
	s.t[0].Mul(an, bn)
	s.t[1].Mul(ad, bd)
	return hvalFromBigParts(&s.t[0], &s.t[1])
}

// AddH returns a+b (named to keep the accumulator method Add free).
func (h *HybridStats) AddH(a, b Hval) Hval {
	if a.tier == tierSmall && b.tier == tierSmall {
		if v, ok := a.s.Add(b.s); ok {
			h.SmallOps++
			return Hval{s: v}
		}
	}
	if a.tier != tierBig && b.tier != tierBig {
		if v, ok := a.wide().Add(b.wide()); ok {
			h.WideOps++
			return hvalFromWide(v)
		}
	}
	h.BigOps++
	s := h.scratch()
	an, ad := a.intsInto(&s.x[0], &s.x[1])
	bn, bd := b.intsInto(&s.x[2], &s.x[3])
	// (an·bd + bn·ad) over ad·bd.
	s.t[0].Mul(an, bd)
	s.t[1].Mul(bn, ad)
	s.t[0].Add(&s.t[0], &s.t[1])
	s.t[1].Mul(ad, bd)
	return hvalFromBigParts(&s.t[0], &s.t[1])
}

// SubH returns a−b.
func (h *HybridStats) SubH(a, b Hval) Hval {
	if a.tier == tierSmall && b.tier == tierSmall {
		if v, ok := a.s.Sub(b.s); ok {
			h.SmallOps++
			return Hval{s: v}
		}
	}
	if a.tier != tierBig && b.tier != tierBig {
		if v, ok := a.wide().Sub(b.wide()); ok {
			h.WideOps++
			return hvalFromWide(v)
		}
	}
	h.BigOps++
	s := h.scratch()
	an, ad := a.intsInto(&s.x[0], &s.x[1])
	bn, bd := b.intsInto(&s.x[2], &s.x[3])
	s.t[0].Mul(an, bd)
	s.t[1].Mul(bn, ad)
	s.t[0].Sub(&s.t[0], &s.t[1])
	s.t[1].Mul(ad, bd)
	return hvalFromBigParts(&s.t[0], &s.t[1])
}

// CmpMul compares the products a·b and c·d exactly without forming
// either quotient: sign(a·b − c·d). Ratio tests are the hot consumer
// — comparing z_j/α_j fractions cross-multiplies into exactly this
// shape, and a fused comparison needs no normalization at all (the
// big path is four big.Int products and a Cmp; denominators are
// positive by invariant).
func (h *HybridStats) CmpMul(a, b, c, d Hval) int {
	if a.tier == tierSmall && b.tier == tierSmall && c.tier == tierSmall && d.tier == tierSmall {
		if p1, ok1 := a.s.Mul(b.s); ok1 {
			if p2, ok2 := c.s.Mul(d.s); ok2 {
				h.SmallOps++
				return p1.Cmp(p2)
			}
		}
	}
	if a.tier != tierBig && b.tier != tierBig && c.tier != tierBig && d.tier != tierBig {
		if p1, ok1 := a.wide().Mul(b.wide()); ok1 {
			if p2, ok2 := c.wide().Mul(d.wide()); ok2 {
				h.WideOps++
				return p1.Cmp(p2)
			}
		}
	}
	h.BigOps++
	s := h.scratch()
	an, ad := a.intsInto(&s.x[0], &s.x[1])
	bn, bd := b.intsInto(&s.x[2], &s.x[3])
	// a·b vs c·d ⟺ an·bn·(cd·dd) vs cn·dn·(ad·bd), dens > 0.
	s.t[0].Mul(an, bn)
	s.t[2].Mul(ad, bd)
	cn, cd := c.intsInto(&s.x[0], &s.x[1])
	dn, dd := d.intsInto(&s.x[2], &s.x[3])
	s.t[1].Mul(cn, dn)
	s.t[1].Mul(&s.t[1], &s.t[2])
	s.t[2].Mul(cd, dd)
	s.t[0].Mul(&s.t[0], &s.t[2])
	return s.t[0].Cmp(&s.t[1])
}
