package consumer

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/mechanism"
)

var update = flag.Bool("update", false, "rewrite testdata/exact_path.golden from the current exact kernel")

// exactPathGolden pins the exact solver's pivot path on the served grid.
const exactPathGolden = "testdata/exact_path.golden"

// TestExactPathPinned pins the exact side of every solve on
// TestServedInteractionGridCertifies's grid: the warm solve at
// n ∈ {6, 8, 16} and the StrategyExact solve at n ≤ 8. Each must end
// Optimal (OptimalInteractionOpts errors otherwise), and its path
// flags, TiedOptima and exact pivot, refactorization and
// magnitude-refactor counts must equal the committed golden. A change to how the exact kernels price, ratio-test
// or pivot that is meant to take the same path must leave every line
// unchanged; TestFloatLocatePinned is the float side's counterpart.
// Regenerate with `go test ./internal/consumer -run TestExactPathPinned
// -update` only when the exact pivot rules change on purpose.
func TestExactPathPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The warm path starts from the float locate's basis, which
		// moves where the compiler fuses multiply-adds.
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var got bytes.Buffer
	record := func(name string, c *Consumer, m *mechanism.Mechanism, strategy lp.Strategy) {
		var s lp.SolveStats
		if _, err := OptimalInteractionOpts(context.Background(), c, m, lp.SolveOpts{Strategy: strategy, Stats: &s}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s hit=%t resumed=%t fallback=%t tied=%t exact=%d revised=%d refactors=%d magnitude=%d\n",
			name, s.WarmStartHit, s.CrossoverResumed, s.Fallback, s.TiedOptima,
			s.ExactPivots, s.RevisedPivots, s.Refactorizations, s.MagnitudeRefactors)
	}
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
	type deployed struct {
		name string
		m    *mechanism.Mechanism
	}
	for _, a := range []string{"1/3", "1/2", "2/3"} {
		for _, n := range []int{6, 8, 16} {
			mechs := []deployed{{"geometric", geo(t, n, a)}}
			if n <= 8 {
				for _, spec := range []baseline.Spec{{Kind: baseline.KindLaplace}, {Kind: baseline.KindStaircase}} {
					m, err := spec.Build(n, r(a))
					if err != nil {
						t.Fatal(err)
					}
					mechs = append(mechs, deployed{spec.String(), m})
				}
			}
			for _, d := range mechs {
				for _, l := range losses {
					for _, side := range [][]int{nil, Interval(1, n-1)} {
						c := &Consumer{Loss: l, Side: side}
						name := fmt.Sprintf("%s/n=%d/α=%s/%s/side=%v", d.name, n, a, l.Name(), side)
						record(name+" warm", c, d.m, lp.StrategyWarmStart)
						if n <= 8 {
							record(name+" exact", c, d.m, lp.StrategyExact)
						}
					}
				}
			}
		}
	}
	path := filepath.FromSlash(exactPathGolden)
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
			t.Fatalf("%s line %d:\n got  %s\n want %s", exactPathGolden, i+1, g, w)
		}
	}
}
