// Package registry wires the individual dpvet analyzers into the
// suite that cmd/dpvet and the repo-wide regression test both run.
// It lives outside package analysis to keep the framework free of
// imports on its own analyzers.
package registry

import (
	"minimaxdp/internal/analysis"
	"minimaxdp/internal/analysis/ctxfirst"
	"minimaxdp/internal/analysis/errdiscard"
	"minimaxdp/internal/analysis/floatflow"
	"minimaxdp/internal/analysis/hotpath"
	"minimaxdp/internal/analysis/ignoreaudit"
	"minimaxdp/internal/analysis/load"
	"minimaxdp/internal/analysis/randsource"
	"minimaxdp/internal/analysis/ratmutate"
	"minimaxdp/internal/analysis/ratoverflow"
)

// All returns the full analyzer suite in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxfirst.Analyzer,
		errdiscard.Analyzer,
		floatflow.Analyzer,
		hotpath.Analyzer,
		ignoreaudit.Analyzer,
		randsource.Analyzer,
		ratmutate.Analyzer,
		ratoverflow.Analyzer,
	}
}

// Run loads patterns relative to dir and applies the whole suite. The
// typed packages are loaded once and shared across every analyzer;
// hotpath's escape-analysis build is prefetched concurrently with the
// load so neither waits on the other.
func Run(dir string, patterns ...string) ([]analysis.Diagnostic, error) {
	shared := analysis.NewShared(dir, patterns...)
	shared.Prefetch()
	res, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Run(res, All(), shared), nil
}
