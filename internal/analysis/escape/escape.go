// Package escape runs the Go compiler's escape analysis over a
// package pattern and parses the resulting diagnostics into a
// queryable index.
//
// The compiler already proves, on every build, exactly the property
// the hotpath analyzer wants to gate: which expressions are heap
// allocated. `go build -gcflags=-m` prints those proofs as
// file:line:col diagnostics ("x escapes to heap", "moved to heap:
// y"), and — crucially — the build cache replays cached diagnostics
// on repeated builds, so invoking this on a warm tree costs one
// cache-hit build, not a full recompile.
//
// Two attribution caveats, both consequences of inlining, are worth
// knowing when reading findings (DESIGN.md §12 discusses both):
//
//   - when a callee is inlined, allocations on its cold paths (the
//     fmt.Sprintf boxing inside a panic guard, say) are reported at
//     the caller's line — which is precisely why the repo's hot
//     functions route panics through //go:noinline helpers; and
//   - an allocation introduced by a function inlined from another
//     package is reported at the other package's source position and
//     therefore lands outside any annotated body in this package.
//
// One parsing caveat: diagnostic paths are relative to the working
// directory of the `go build` that FIRST compiled the package, and
// cached replays keep those original paths verbatim — so a warm cache
// populated from a different directory yields paths that no current
// directory can resolve by joining. Diagnostics therefore stores
// paths exactly as printed and Allocations matches them against the
// query's absolute path by path suffix (the printed form is always
// the absolute path or a suffix of it: the go tool only relativizes
// paths under the invocation directory).
package escape

import (
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// An Alloc is one heap-allocation diagnostic from the compiler.
type Alloc struct {
	Line    int
	Col     int
	Message string
}

// Expr returns the source expression the diagnostic names: the value
// of an "x escapes to heap" report, or the variable of a "moved to
// heap: x" one. The compiler prints it after inlining, so it may come
// from a callee's body (context.backgroundCtx{} for an inlined
// r.Context()), and it abbreviates composite literal bodies as {...}.
func (a Alloc) Expr() string {
	if e, ok := strings.CutSuffix(a.Message, " escapes to heap"); ok {
		return e
	}
	if v, ok := strings.CutPrefix(a.Message, "moved to heap: "); ok {
		return v
	}
	return ""
}

// Diagnostics indexes heap-allocation diagnostics by file path as
// printed by the compiler (see the package comment on why that is not
// necessarily resolvable against any one directory).
type Diagnostics struct {
	byFile map[string][]Alloc // sorted by (Line, Col)
}

// diagRE matches one "file:line:col: message" compiler diagnostic.
var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// heapMessage reports whether a -m diagnostic records a heap
// allocation (as opposed to inlining decisions, "does not escape"
// proofs, and similar chatter).
func heapMessage(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

// Run builds patterns (resolved relative to dir) with -gcflags=-m and
// returns the parsed heap-allocation diagnostics. A build failure is
// an error carrying the compiler output.
func Run(dir string, patterns ...string) (*Diagnostics, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, patterns...)...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escape: go build -gcflags=-m: %v\n%s", err, out.String())
	}
	return parse(out.String()), nil
}

func parse(output string) *Diagnostics {
	d := &Diagnostics{byFile: make(map[string][]Alloc)}
	for _, line := range strings.Split(output, "\n") {
		if strings.HasPrefix(line, "#") { // "# minimaxdp/internal/lp" package headers
			continue
		}
		m := diagRE.FindStringSubmatch(line)
		if m == nil || !heapMessage(m[4]) {
			continue
		}
		file := m[1]
		ln, err := strconv.Atoi(m[2])
		if err != nil {
			continue // out-of-range line number; not a real diagnostic
		}
		col, err := strconv.Atoi(m[3])
		if err != nil {
			continue
		}
		d.byFile[file] = append(d.byFile[file], Alloc{Line: ln, Col: col, Message: m[4]})
	}
	for _, allocs := range d.byFile {
		sort.Slice(allocs, func(i, j int) bool {
			if allocs[i].Line != allocs[j].Line {
				return allocs[i].Line < allocs[j].Line
			}
			return allocs[i].Col < allocs[j].Col
		})
	}
	return d
}

// Allocations returns the heap allocations recorded in file (an
// absolute path, as reported by the loader's FileSet) between
// startLine and endLine inclusive, sorted by position. Recorded paths
// match by identity or by path suffix; a multi-component suffix like
// "testdata/src/hotpath/fixture.go" identifies one file per module in
// practice, and a collision could only ever surface spurious findings
// on identically-numbered lines, never hide real ones.
func (d *Diagnostics) Allocations(file string, startLine, endLine int) []Alloc {
	var out []Alloc
	for recorded, allocs := range d.byFile {
		if recorded != file && !strings.HasSuffix(file, "/"+recorded) {
			continue
		}
		for _, a := range allocs {
			if a.Line >= startLine && a.Line <= endLine {
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out
}
