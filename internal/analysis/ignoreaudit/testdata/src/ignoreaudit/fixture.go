// Package fixture exercises the driver-level //dpvet:ignore audit:
// one directive in each state — used and justified (silent), stale,
// bare, and excused via the ignoreaudit escape hatch.
package fixture

import (
	"math/big"

	"minimaxdp/internal/rational"
)

// Render carries the healthy case: the directive suppresses a real
// floatflow finding on the next line and says why, so the audit
// stays silent about it.
func Render(a *big.Rat) float64 {
	//dpvet:ignore floatflow fixture: sanctioned display conversion
	return rational.Float(a)
}

// Exact drags a directive that no longer earns its keep: nothing on
// the covered lines produces a floatflow finding.
//
//dpvet:ignore floatflow left behind after a refactor // want `stale //dpvet:ignore directive`
func Exact(a, b *big.Rat) *big.Rat {
	return rational.Add(a, b)
}

// Bare omits the justification; the directive is stale too, so the
// audit reports both defects.
//
//dpvet:ignore floatflow // want `no justification` `stale //dpvet:ignore directive`
func Bare(a *big.Rat) *big.Rat {
	return rational.Neg(a)
}

// Kept shows the escape hatch: a deliberately retained directive
// names ignoreaudit alongside the suppressed analyzer, which
// suppresses the audit's own stale finding.
//
//dpvet:ignore floatflow,ignoreaudit retained while the display path is reworked
func Kept(a, b *big.Rat) *big.Rat {
	return rational.Mul(a, b)
}
