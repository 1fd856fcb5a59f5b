// Package floatflow implements dpvet's exactness analyzer: one table
// (DefaultTable) names the exact packages, and each gets one of three
// modes.
//
// Theorem 2's derivability test ((1+α²)·x₂ − α·(x₁+x₃) ≥ 0) and the
// LP optima of §2.4.3/§2.5 are exact rational statements; one float64
// round-trip inside the pipeline turns every downstream "equality"
// into an approximation and silently voids the optimality claims.
//
//   - Fenced packages have no sanctioned float use. Every construct
//     that crosses the rational/float boundary is reported there:
//     rational.Float, rational.FromFloat, (*big.Rat).Float64/Float32,
//     and float64/float32 conversions. Fenced implies policed.
//   - Policed packages get the taint tracking described below.
//   - SinkOnly packages (math/big, rational, sample) are not walked;
//     they are where tainted data must not arrive.
//
// The float simplex (internal/lp/floatsimplex.go) exists precisely to
// compute with floats, so a syntactic float ban there is useless; what
// the optimality theorems actually require is that float-derived DATA
// never becomes exact data. floatflow checks that property directly:
//
//   - Sources: every expression whose type carries float32/float64
//     (literals, conversions, rational.Float results,
//     (*big.Rat).Float64 results, float struct fields, ...).
//
//   - Propagation: taint follows explicit data flow — assignments,
//     composite literals, conversions (int64(f) is tainted!), range
//     clauses, copy, returns, and intra-package calls via per-function
//     summaries computed to a fixpoint. Struct fields are tracked
//     per-field, so an int field of a float-carrying struct stays
//     clean until something tainted is stored in it.
//
//   - Declassification: comparisons (==, <, ...) yield untainted
//     booleans. Implicit flows through control dependence are out of
//     scope by design — that is exactly the sanctioned channel: the
//     float simplex may COMPARE floats to choose a pivot, and the
//     resulting []int candidate basis is float-blind even though every
//     index was selected by float comparisons. The basis handoff in
//     floatCandidateBasis therefore passes with no exemption at all.
//
//   - Sinks: (1) any call that produces an exact artifact (a value
//     whose type structurally contains big.Rat/big.Int) from a tainted
//     input — rational.FromFloat(f), (*big.Rat).SetFloat64(f),
//     tableau construction from laundered ints; (2) a tainted value
//     crossing into another exact-core package through a parameter
//     whose type does not itself carry floats (big.NewRat(n, d) with a
//     laundered n, matrix.Set, sample.NewDyadicAlias weights); (3) an
//     exported function returning a tainted non-float-typed value
//     (laundering past the package boundary); (4) a tainted value
//     stored in a package-level variable.
//
// DESIGN.md §12 documents the model, its sanctioned exemption, and
// its known blind spots.
package floatflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"minimaxdp/internal/analysis"
)

// Mode says how strictly floatflow treats one exact-world package.
// The zero Mode is the float-native world outside the table
// (internal/laplace, internal/stats, ...), which floatflow ignores.
type Mode int

const (
	// SinkOnly packages are the roots of the exact world. floatflow
	// does not walk them, but a tainted value crossing into one
	// through a float-blind parameter is a finding.
	SinkOnly Mode = iota + 1
	// Policed packages may compute with floats to steer choices (the
	// float simplex in internal/lp), but float-derived data must never
	// become exact data: taint tracking.
	Policed
	// Fenced packages have no sanctioned float use: taint tracking,
	// plus a finding at every rational.Float, rational.FromFloat,
	// (*big.Rat).Float64/Float32 call and float64/float32 conversion,
	// tainted or not.
	Fenced
)

// Table maps exact-world packages, by import path or "/"-suffix (see
// analysis.PathMatches), to their Mode.
type Table map[string]Mode

// mode returns the Mode of the package at path; the longest matching
// entry wins, so the answer does not depend on map order.
func (t Table) mode(path string) Mode {
	best, m := -1, Mode(0)
	for suffix, sm := range t {
		if len(suffix) > best && analysis.PathMatches(path, []string{suffix}) {
			best, m = len(suffix), sm
		}
	}
	return m
}

// DefaultTable is the one list of exact packages and how strictly
// each is held. DESIGN.md §7 explains the split.
var DefaultTable = Table{
	"math/big":          SinkOnly,
	"internal/rational": SinkOnly,
	// The dyadic alias tables are built from exact rows; samplers
	// hand them only certified integer weights.
	"internal/sample": SinkOnly,
	// The float simplex (floatsimplex.go) lives here; its only legal
	// export is a comparison-selected candidate basis.
	"internal/lp": Policed,
	// Exact rationals on disk and exact privacy accounting.
	"internal/store":  Policed,
	"internal/tenant": Policed,
	"internal/derive": Fenced,
	// The consumer LPs and the mechanisms' exact rows and alias
	// tables (AliasRow).
	"internal/consumer":  Fenced,
	"internal/matrix":    Fenced,
	"internal/mechanism": Fenced,
	// The serving engine caches exact artifacts and builds its
	// samplers' dyadic tables by integer quantization with a rational
	// certificate, so not even the draw path needs a float. See
	// DESIGN.md §11.
	"internal/engine": Fenced,
	// The compare workbench: exact baseline builders (staircase,
	// truncated Laplace) and the loss registry behind every consumer
	// spec codec.
	"internal/baseline": Fenced,
	"internal/loss":     Fenced,
	// Fixture packages, so the production binary fires when pointed
	// at them (`go run ./cmd/dpvet ./internal/analysis/floatflow/testdata/src/fence`).
	// Wildcard patterns never descend into testdata, so these entries
	// are inert for ./... runs.
	"testdata/src/floatflow": Policed,
	"testdata/src/fence":     Fenced,
}

// Analyzer is the production instance.
var Analyzer = New(DefaultTable)

// New builds a floatflow analyzer over a custom table; tests point it
// at fixture packages.
func New(table Table) *analysis.Analyzer {
	a := &analyzer{table: table}
	return &analysis.Analyzer{
		Name: "floatflow",
		Doc: "track float-tainted values through assignments, calls, and returns, and " +
			"forbid them from becoming exact data (big.Rat construction, exact-package " +
			"arguments, exported non-float results); comparisons declassify, so the float " +
			"simplex's candidate basis passes without an exemption. Fenced packages also " +
			"forbid every float escape (rational.Float, rational.FromFloat, " +
			"(*big.Rat).Float64, float conversions)",
		Run: a.run,
	}
}

type analyzer struct {
	table Table
}

const maxFixpointRounds = 64

func (a *analyzer) run(pass *analysis.Pass) {
	mode := a.table.mode(pass.Pkg.Path())
	if mode < Policed {
		return
	}
	tr := &tracker{
		pass:     pass,
		table:    a.table,
		tainted:  make(map[types.Object]bool),
		retTaint: make(map[*types.Func]bool),
		reported: make(map[*ast.CallExpr]bool),
	}
	if mode == Fenced {
		tr.fence()
	}
	for round := 0; round < maxFixpointRounds; round++ {
		tr.changed = false
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						tr.walkBody(tr.funcOf(d), d.Body)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						tr.walkGlobals(d)
					}
				}
			}
		}
		if !tr.changed {
			break
		}
	}
	tr.report()
}

// tracker holds the taint state for one package.
type tracker struct {
	pass  *analysis.Pass
	table Table
	// tainted records objects (locals, params, named results, fields,
	// package vars) that hold float-derived data despite having a
	// non-float type — "laundered" taint. Objects whose type carries
	// float are tainted by type and need no entry.
	tainted map[types.Object]bool
	// retTaint records functions that return laundered taint in at
	// least one non-float-typed result.
	retTaint map[*types.Func]bool
	// reported records calls already reported (by the fence or as a
	// sink), so later checks do not report their cascade.
	reported map[*ast.CallExpr]bool
	changed  bool
}

func (tr *tracker) funcOf(d *ast.FuncDecl) *types.Func {
	fn, _ := tr.pass.Info.Defs[d.Name].(*types.Func)
	return fn
}

func (tr *tracker) markObj(obj types.Object) {
	if obj == nil || tr.tainted[obj] {
		return
	}
	tr.tainted[obj] = true
	tr.changed = true
}

func (tr *tracker) setRet(fn *types.Func) {
	if fn == nil || tr.retTaint[fn] {
		return
	}
	tr.retTaint[fn] = true
	tr.changed = true
}

func (tr *tracker) objOf(id *ast.Ident) types.Object {
	if obj := tr.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return tr.pass.Info.Defs[id]
}

// ---- type predicates ----

// carrier reports whether t structurally contains float32/float64 (or
// complex). Values of carrier types are tainted by type alone.
func (tr *tracker) carrier(t types.Type) bool {
	return typeHas(t, func(b *types.Basic) bool {
		return b.Info()&(types.IsFloat|types.IsComplex) != 0
	}, make(map[types.Type]bool))
}

// exactArtifact reports whether t structurally contains big.Rat or
// big.Int — the data the exact pipeline's theorems quantify over.
func exactArtifact(t types.Type) bool {
	return analysis.ContainsBigExact(t)
}

// typeHas walks t's structure looking for a basic-type match,
// guarding against reference cycles.
func typeHas(t types.Type, basic func(*types.Basic) bool, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return basic != nil && basic(u)
	case *types.Pointer:
		return typeHas(u.Elem(), basic, seen)
	case *types.Slice:
		return typeHas(u.Elem(), basic, seen)
	case *types.Array:
		return typeHas(u.Elem(), basic, seen)
	case *types.Chan:
		return typeHas(u.Elem(), basic, seen)
	case *types.Map:
		return typeHas(u.Key(), basic, seen) || typeHas(u.Elem(), basic, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeHas(u.Field(i).Type(), basic, seen) {
				return true
			}
		}
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if typeHas(u.At(i).Type(), basic, seen) {
				return true
			}
		}
	}
	return false
}

func (tr *tracker) carrierExpr(e ast.Expr) bool {
	tv, ok := tr.pass.Info.Types[e]
	return ok && tv.Type != nil && tr.carrier(tv.Type)
}

// ---- taint evaluation ----

// taint reports whether e evaluates to float-derived data: either its
// type carries float, or it reads an object holding laundered taint.
func (tr *tracker) taint(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if tr.carrierExpr(e) {
		return true
	}
	switch x := analysis.Unparen(e).(type) {
	case *ast.Ident:
		return tr.tainted[tr.objOf(x)]
	case *ast.SelectorExpr:
		// Field selection is field-sensitive: the int fields of a
		// float-carrying struct stay clean unless something tainted
		// was stored in them.
		return tr.tainted[tr.objOf(x.Sel)]
	case *ast.IndexExpr:
		return tr.taint(x.X)
	case *ast.IndexListExpr:
		return tr.taint(x.X)
	case *ast.StarExpr:
		return tr.taint(x.X)
	case *ast.UnaryExpr:
		return tr.taint(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			// Comparison results are float-blind: only the branch
			// decision survives, and implicit flows are the
			// sanctioned channel (the candidate-basis exemption).
			return false
		}
		return tr.taint(x.X) || tr.taint(x.Y)
	case *ast.CallExpr:
		return tr.launderedCall(x)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if tr.taint(el) {
				return true
			}
		}
		return false
	case *ast.TypeAssertExpr:
		return tr.taint(x.X)
	case *ast.SliceExpr:
		return tr.taint(x.X)
	case *ast.FuncLit, *ast.BasicLit:
		return false
	}
	return false
}

// launderedCall reports whether a call yields taint in results whose
// types do NOT carry float (by-type carrier results are handled by
// carrierExpr at the use site). Conversions propagate their operand;
// intra-package calls use the fixpoint summary; cross-package and
// indirect calls are conservative: any tainted input taints every
// result.
func (tr *tracker) launderedCall(call *ast.CallExpr) bool {
	info := tr.pass.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && tr.taint(call.Args[0])
	}
	if b := tr.builtinOf(call); b != nil {
		switch b.Name() {
		case "len", "cap", "make", "new", "delete", "clear", "copy", "close",
			"panic", "recover", "print", "println":
			return false
		}
		return tr.anyArgTaint(call)
	}
	fn := analysis.CalleeFunc(info, call)
	if fn != nil && fn.Pkg() == tr.pass.Pkg {
		return tr.retTaint[fn]
	}
	return tr.anyArgTaint(call)
}

func (tr *tracker) builtinOf(call *ast.CallExpr) *types.Builtin {
	id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, _ := tr.pass.Info.Uses[id].(*types.Builtin)
	return b
}

// anyArgTaint reports whether any argument — or the method receiver —
// is tainted.
func (tr *tracker) anyArgTaint(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tr.taint(arg) {
			return true
		}
	}
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := tr.pass.Info.Selections[sel]; isMethod && tr.taint(sel.X) {
			return true
		}
	}
	return false
}

// ---- propagation (fixpoint walk) ----

// walkBody propagates taint through one function body. fn is nil for
// function literals, whose returns feed no summary (calls through
// function values are handled conservatively instead).
func (tr *tracker) walkBody(fn *types.Func, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			tr.walkBody(nil, x.Body)
			return false
		case *ast.AssignStmt:
			tr.assign(x.Lhs, x.Rhs, x.Tok)
		case *ast.ValueSpec:
			tr.valueSpec(x)
		case *ast.RangeStmt:
			tr.rangeStmt(x)
		case *ast.ReturnStmt:
			tr.returnStmt(fn, x)
		case *ast.CallExpr:
			tr.injectCall(x)
		}
		return true
	})
}

func (tr *tracker) walkGlobals(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			tr.valueSpec(vs)
		}
	}
}

func (tr *tracker) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == len(vs.Names) {
		for i, name := range vs.Names {
			if tr.taint(vs.Values[i]) {
				tr.markObj(tr.objOf(name))
			}
		}
		return
	}
	if len(vs.Values) == 1 { // var a, b = f()
		if call, ok := analysis.Unparen(vs.Values[0]).(*ast.CallExpr); ok && tr.launderedCall(call) {
			for _, name := range vs.Names {
				tr.markObj(tr.objOf(name))
			}
		}
	}
}

func (tr *tracker) assign(lhs, rhs []ast.Expr, tok token.Token) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			t := tr.taint(rhs[i])
			if tok != token.ASSIGN && tok != token.DEFINE {
				// compound op= : comparison tokens cannot appear here,
				// so arithmetic propagation applies.
				t = t || tr.taint(lhs[i])
			}
			if t {
				tr.markLHS(lhs[i])
			}
		}
		return
	}
	if len(rhs) != 1 {
		return
	}
	// Multi-value: v, ok := f() / m[k] / x.(T) / <-ch. Only laundered
	// taint propagates to ALL targets; a tuple that is carrier merely
	// because one member's type has floats does not taint the others.
	switch r := analysis.Unparen(rhs[0]).(type) {
	case *ast.CallExpr:
		if tr.launderedCall(r) {
			for _, l := range lhs {
				tr.markLHS(l)
			}
		}
	case *ast.IndexExpr:
		if tr.taint(r.X) {
			tr.markLHS(lhs[0])
		}
	case *ast.TypeAssertExpr:
		if tr.taint(r.X) {
			tr.markLHS(lhs[0])
		}
	case *ast.UnaryExpr:
		if tr.taint(r.X) {
			tr.markLHS(lhs[0])
		}
	}
}

// markLHS records taint flowing into an assignment target. Index and
// dereference wrappers are stripped so that ft.row[j] taints the row
// FIELD, not the whole struct.
func (tr *tracker) markLHS(lhs ast.Expr) {
	switch x := analysis.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		tr.markObj(tr.objOf(x))
	case *ast.SelectorExpr:
		tr.markObj(tr.objOf(x.Sel))
	case *ast.IndexExpr:
		tr.markLHS(x.X)
	case *ast.StarExpr:
		tr.markLHS(x.X)
	case *ast.SliceExpr:
		tr.markLHS(x.X)
	}
}

func (tr *tracker) rangeStmt(r *ast.RangeStmt) {
	if !tr.taint(r.X) {
		return
	}
	if r.Value != nil {
		tr.markLHS(r.Value)
	}
	if r.Key != nil {
		// Slice/array indices are float-blind; map keys are data.
		if tv, ok := tr.pass.Info.Types[r.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				tr.markLHS(r.Key)
			}
		}
	}
}

func (tr *tracker) returnStmt(fn *types.Func, ret *ast.ReturnStmt) {
	if fn == nil || tr.retTaint[fn] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	results := sig.Results()
	if len(ret.Results) == 0 { // bare return with named results
		for i := 0; i < results.Len(); i++ {
			r := results.At(i)
			if !tr.carrier(r.Type()) && tr.tainted[r] {
				tr.setRet(fn)
				return
			}
		}
		return
	}
	if len(ret.Results) == 1 && results.Len() > 1 { // return f()
		if call, ok := analysis.Unparen(ret.Results[0]).(*ast.CallExpr); ok && tr.launderedCall(call) {
			tr.setRet(fn)
		}
		return
	}
	for i, expr := range ret.Results {
		if i >= results.Len() {
			break
		}
		if !tr.carrier(results.At(i).Type()) && tr.taint(expr) {
			tr.setRet(fn)
			return
		}
	}
}

// injectCall feeds call-site taint into intra-package callees' param
// objects (the fixpoint then re-evaluates the callee's body), and
// models the copy builtin.
func (tr *tracker) injectCall(call *ast.CallExpr) {
	info := tr.pass.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if b := tr.builtinOf(call); b != nil {
		if b.Name() == "copy" && len(call.Args) == 2 && tr.taint(call.Args[1]) {
			tr.markLHS(call.Args[0])
		}
		return
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() != tr.pass.Pkg {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		if np == 0 || !tr.taint(arg) {
			continue
		}
		pi := i
		if pi >= np {
			if !sig.Variadic() {
				continue
			}
			pi = np - 1
		}
		tr.markObj(sig.Params().At(pi))
	}
}

// ---- fence (fenced packages only) ----

// fence reports every construct that crosses the rational/float
// boundary, whether or not taint reaches it, and marks each reported
// call so the taint sinks do not report it a second time.
func (tr *tracker) fence() {
	for _, file := range tr.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && tr.fenceCall(call) {
				tr.reported[call] = true
			}
			return true
		})
	}
}

func (tr *tracker) fenceCall(call *ast.CallExpr) bool {
	pass := tr.pass
	// Conversions: float64(x), float32(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || (b.Kind() != types.Float64 && b.Kind() != types.Float32) {
			return false
		}
		pass.Reportf(call.Pos(),
			"%s conversion in exact-arithmetic package %s (keep the pipeline on *big.Rat; see DESIGN.md §7)",
			b.Name(), pass.Pkg.Path())
		return true
	}
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil {
		return false
	}
	// Boundary helpers of the rational package.
	if pkg := fn.Pkg(); pkg != nil && analysis.PathMatches(pkg.Path(), []string{"internal/rational"}) {
		if fn.Name() != "Float" && fn.Name() != "FromFloat" {
			return false
		}
		pass.Reportf(call.Pos(),
			"call to rational.%s in exact-arithmetic package %s (rational↔float bridges are allowed only in display and Monte-Carlo code)",
			fn.Name(), pass.Pkg.Path())
		return true
	}
	// Direct (*big.Rat).Float64 / Float32 method calls.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !analysis.IsBigRat(sig.Recv().Type()) ||
		(fn.Name() != "Float64" && fn.Name() != "Float32") {
		return false
	}
	pass.Reportf(call.Pos(),
		"call to (*math/big.Rat).%s in exact-arithmetic package %s (exactness is lost at this point)",
		fn.Name(), pass.Pkg.Path())
	return true
}

// ---- sinks (report pass) ----

func (tr *tracker) report() {
	for _, file := range tr.pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					tr.reportBody(d)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					tr.reportGlobalInit(d)
				}
			}
		}
	}
}

func (tr *tracker) reportGlobalInit(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, name := range vs.Names {
			obj := tr.objOf(name)
			if obj != nil && !tr.carrier(obj.Type()) && tr.taint(vs.Values[i]) {
				tr.pass.Reportf(name.Pos(),
					"float-tainted value persisted in package-level %s (DESIGN.md §12)", name.Name)
			}
		}
	}
}

func (tr *tracker) reportBody(fd *ast.FuncDecl) {
	fn := tr.funcOf(fd)
	// Calls first: a reported sink call marks tr.reported so the
	// return check can skip it and avoid cascading findings.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			tr.checkCallSinks(x)
		case *ast.AssignStmt:
			tr.checkGlobalStore(x)
		}
		return true
	})
	if !fd.Name.IsExported() {
		return
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.FuncLit:
				return false // returns inside literals are not the decl's exports
			case *ast.ReturnStmt:
				tr.checkExportedReturn(fn, x)
			}
			return true
		})
	}
	walk(fd.Body)
}

// checkCallSinks flags calls that convert taint into exact data: S2
// (producing an exact artifact from a tainted input) and S1 (a
// tainted value crossing into another exact-core package through a
// float-blind parameter). At most one finding per call.
func (tr *tracker) checkCallSinks(call *ast.CallExpr) {
	info := tr.pass.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if tr.builtinOf(call) != nil || tr.reported[call] {
		return
	}
	fn := analysis.CalleeFunc(info, call)
	// S2: exact artifact produced from tainted input.
	if tv, ok := info.Types[call]; ok && tv.Type != nil && exactArtifact(tv.Type) && tr.anyArgTaint(call) {
		name := "function value"
		if fn != nil {
			name = fn.Name()
		}
		tr.reported[call] = true
		tr.pass.Reportf(call.Pos(),
			"float-tainted value becomes exact data via call to %s; floats may guide choices through comparisons but must never construct exact artifacts (DESIGN.md §12)",
			name)
		return
	}
	// S1: tainted argument into a float-blind parameter of another
	// exact-core package.
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == tr.pass.Pkg ||
		tr.table.mode(fn.Pkg().Path()) == 0 {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sel, okSel := analysis.Unparen(call.Fun).(*ast.SelectorExpr); okSel && sig.Recv() != nil {
		if _, isMethod := info.Selections[sel]; isMethod &&
			!tr.carrier(sig.Recv().Type()) && tr.taint(sel.X) {
			tr.reported[call] = true
			tr.pass.Reportf(call.Pos(),
				"float-tainted receiver in call to (%s).%s of exact package %s (DESIGN.md §12)",
				sig.Recv().Type(), fn.Name(), fn.Pkg().Path())
			return
		}
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		if np == 0 {
			break
		}
		pi := i
		if pi >= np {
			if !sig.Variadic() {
				break
			}
			pi = np - 1
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == np-1 {
			if s, okS := pt.Underlying().(*types.Slice); okS {
				pt = s.Elem()
			}
		}
		if !tr.carrier(pt) && tr.taint(arg) {
			tr.reported[call] = true
			tr.pass.Reportf(arg.Pos(),
				"float-tainted argument crosses into exact package %s via %s; only float-blind data (a comparison-selected basis or index) may cross (DESIGN.md §12)",
				fn.Pkg().Path(), fn.Name())
			return
		}
	}
}

// checkExportedReturn flags exported functions returning laundered
// taint in a non-float-typed result (S3). Returns whose expression is
// a call already reported as a sink are skipped to avoid cascades.
func (tr *tracker) checkExportedReturn(fn *types.Func, ret *ast.ReturnStmt) {
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	results := sig.Results()
	for i, expr := range ret.Results {
		if i >= results.Len() {
			break
		}
		rt := results.At(i).Type()
		if tr.carrier(rt) {
			continue
		}
		if call, okC := analysis.Unparen(expr).(*ast.CallExpr); okC && tr.reported[call] {
			continue
		}
		if tr.taint(expr) {
			tr.pass.Reportf(ret.Pos(),
				"exported %s returns float-tainted %s result; the sanctioned float-derived export is a comparison-selected basis/index (DESIGN.md §12)",
				fn.Name(), rt)
			return
		}
	}
}

// checkGlobalStore flags stores of tainted values into package-level
// variables (S4): persisted taint outlives any flow the analyzer can
// see.
func (tr *tracker) checkGlobalStore(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := analysis.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := tr.objOf(id)
		if obj == nil || obj.Parent() != tr.pass.Pkg.Scope() {
			continue
		}
		if !tr.carrier(obj.Type()) && tr.taint(as.Rhs[i]) {
			tr.pass.Reportf(lhs.Pos(),
				"float-tainted value persisted in package-level %s (DESIGN.md §12)", id.Name)
		}
	}
}
