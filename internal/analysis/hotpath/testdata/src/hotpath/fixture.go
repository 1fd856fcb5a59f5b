// Package fixture seeds hotpath annotations over allocating and
// allocation-free functions, so the golden test proves the analyzer
// reads the compiler's escape facts rather than guessing.
package fixture

import "net/http"

// Alloc breaks its own promise: the annotation says allocation-free,
// the body makes a fresh slice.
//
//dpvet:hotpath
func Alloc(n int) []int {
	return make([]int, n) // want `heap allocation in //dpvet:hotpath function Alloc`
}

// Clean writes in place; the annotation holds.
//
//dpvet:hotpath
func Clean(dst []int) {
	for i := range dst {
		dst[i] = i * 2
	}
}

// Unannotated allocates freely: without the directive it is none of
// hotpath's business.
func Unannotated() *int {
	return new(int)
}

type empty struct{}

type pair struct{ a, b int }

var sink any

//go:noinline
func keep(x any) { sink = x }

// ZeroSize boxes only values of size zero. The compiler reports each
// one as escaping, but none allocates, so the annotation holds. The
// last is the inlined body of r.Context(), whose type
// (context.backgroundCtx) lives in a package the fixture does not
// import itself.
//
//dpvet:hotpath
func ZeroSize(r *http.Request) {
	keep(empty{})
	keep(struct{}{})
	keep([0]int{})
	var e empty
	keep(e)
	keep(r.Context())
}

// Boxed boxes a two-word value, which does allocate.
//
//dpvet:hotpath
func Boxed() {
	keep(pair{1, 2}) // want `heap allocation in //dpvet:hotpath function Boxed: pair\{\.\.\.\} escapes to heap`
}
