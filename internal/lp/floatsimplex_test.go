package lp

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
)

var update = flag.Bool("update", false, "rewrite testdata/float_locate.golden from the current float kernel")

// raceEnabled reports a -race build (set by race_test.go).
var raceEnabled bool

// floatLocateGolden pins the float simplex's pivot path.
const floatLocateGolden = "testdata/float_locate.golden"

// floatLocateCases returns the LPs whose float solves
// TestFloatLocatePinned records: the tailored LPs of four losses ×
// n ∈ {4,6,8,12} × full/interval side (the interval side drops both
// domain endpoints) × four α, and every seed and committed corpus
// entry of FuzzWarmStartMatchesExact and FuzzSparseMatchesDense.
func floatLocateCases(t *testing.T) (names []string, probs []*Problem) {
	t.Helper()
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
	alphas := []*big.Rat{rational.New(1, 2), rational.New(1, 3), rational.New(2, 3), rational.New(1, 4)}
	for _, l := range losses {
		for _, n := range []int{4, 6, 8, 12} {
			for _, kind := range []string{"full", "interval"} {
				var side []int
				for i := 0; i <= n; i++ {
					if kind == "full" || (i > 0 && i < n) {
						side = append(side, i)
					}
				}
				for _, a := range alphas {
					names = append(names, fmt.Sprintf("tailored/%s/%s/n=%d/a=%s", l.Name(), kind, n, a.RatString()))
					probs = append(probs, tailoredSideLP(n, a, l, side))
				}
			}
		}
	}
	for _, fz := range []struct {
		target string
		seeds  [][]byte
		decode func([]byte) *Problem
	}{
		{"FuzzWarmStartMatchesExact", warmStartSeeds, fuzzProblem},
		{"FuzzSparseMatchesDense", sparseSeeds, fuzzSparseProblem},
	} {
		corpus, inputs := fuzzCorpus(t, fz.target, fz.seeds)
		for k, data := range inputs {
			if p := fz.decode(data); p != nil {
				names = append(names, fz.target+"/"+corpus[k])
				probs = append(probs, p)
			}
		}
	}
	return names, probs
}

// TestFloatLocatePinned pins the float simplex's pivot path: for every
// floatLocateCases LP, the status, ok, pivot count and final basis of
// floatCandidateBasis's run (perturbed, dual cleanup included) must
// equal the committed golden. A
// change to the float tableau's storage or elimination order that is
// meant to compute the same values must leave every line unchanged.
// Regenerate with `go test ./internal/lp -run TestFloatLocatePinned
// -update` only when the pivot rules themselves change on purpose.
func TestFloatLocatePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets an implementation fuse x − f·p into one
		// rounding (FMA); other architectures' compilers do, which
		// moves float values and so can move the pivot path.
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if raceEnabled {
		// The float kernel runs on one goroutine, so the race detector
		// has nothing to find here, and its instrumentation stretches
		// the test from about 2 s to about 20 s.
		t.Skip("single-goroutine float arithmetic; pinned by the non-race run")
	}
	names, probs := floatLocateCases(t)
	var got bytes.Buffer
	for k, p := range probs {
		s := newStandardForm(p)
		st, ft, ok, _ := s.floatSolve(context.Background())
		basis := make([]string, len(ft.basis))
		for r, bi := range ft.basis {
			basis[r] = strconv.Itoa(bi)
		}
		fmt.Fprintf(&got, "%s perturb=true status=%v ok=%t pivots=%d basis=%s\n",
			names[k], st, ok, ft.pivots, strings.Join(basis, ","))
	}
	path := filepath.FromSlash(floatLocateGolden)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %.300s\n want %.300s", floatLocateGolden, i+1, g, w)
		}
	}
}

// BenchmarkSimplexFloatLocate times the float locate that every
// warm-started solve runs (floatCandidateBasis: the perturbed two-phase
// float simplex plus its dual cleanup, the span SolveStats.FloatNanos
// measures) on the tailored absolute-loss LP at α = 1/2. The standard
// form is built once, outside the timed loop.
func BenchmarkSimplexFloatLocate(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := newStandardForm(tailoredTestLP(n, rational.New(1, 2)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok, _ := s.floatCandidateBasis(context.Background()); !ok {
					b.Fatal("float locate found no candidate basis")
				}
			}
		})
	}
}
