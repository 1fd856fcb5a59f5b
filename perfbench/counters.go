// Per-layer counts from /v1/metrics deltas over the measured phase of
// an untraced run.

package main

import "minimaxdp/internal/engine"

// counters is a flat view of the /v1/metrics counters the benchmark
// reports; deltas and sums over passes are taken key by key.
type counters map[string]float64

// routes maps the per-route metric suffix to dpserver's route pattern.
var routes = []struct{ name, pattern string }{
	{"sample", "/v1/sample"},
	{"tailored", "/v1/tailored"},
	{"compare", "/v1/compare"},
	{"tenant_release", "/v1/tenants/{id}/release"},
	{"tenant_sample", "/v1/tenants/{id}/sample"},
}

func flatten(m *serverMetrics) counters {
	c := counters{}
	classes := map[string]engine.ArtifactStats{
		"tailored": m.Engine.Tailored,
		"compares": m.Engine.Compares,
	}
	for name, st := range classes {
		c[name+".requests"] = float64(st.Requests)
		c[name+".hits"] = float64(st.Cache.Hits)
		c[name+".misses"] = float64(st.Cache.Misses)
		c[name+".store_hits"] = float64(st.StoreHits)
		c[name+".store_writes"] = float64(st.StoreWrites)
		c[name+".compute_ns"] = float64(st.ComputeNanos)
	}
	lp := m.Engine.LP
	c["lp.solves"] = float64(lp.Solves)
	c["lp.hits"] = float64(lp.WarmStartHits)
	c["lp.resumes"] = float64(lp.CrossoverResumes)
	c["lp.fallbacks"] = float64(lp.Fallbacks)
	c["lp.float_pivots"] = float64(lp.FloatPivots)
	c["lp.exact_pivots"] = float64(lp.ExactPivots)
	c["lp.revised_pivots"] = float64(lp.RevisedPivots)
	c["lp.parallel_pivots"] = float64(lp.ParallelPivots)
	c["lp.refactorizations"] = float64(lp.Refactorizations)
	c["lp.presolve_rows"] = float64(lp.PresolveRows)
	c["rational.small_ops"] = float64(lp.SmallOps)
	c["rational.wide_ops"] = float64(lp.WideOps)
	c["rational.big_fallbacks"] = float64(lp.BigFallbacks)
	c["store.misses"] = float64(m.Store.Misses)
	c["store.writes"] = float64(m.Store.Writes)
	c["store.write_errors"] = float64(m.Store.WriteErrors)
	for _, r := range routes {
		st := m.Server.Routes[r.pattern]
		c["route."+r.name+".count"] = float64(st.Count)
		c["route."+r.name+".ns"] = float64(st.TotalNanos)
	}
	return c
}

// add accumulates after−before into c.
func (c counters) add(before, after *serverMetrics) {
	b, a := flatten(before), flatten(after)
	for k, v := range a {
		c[k] += v - b[k]
	}
}

// report writes the count-based per-layer metrics.
func (c counters) report(m metrics) {
	for _, r := range routes {
		m.set("dpserver.handler_us."+r.name, "us",
			frac(c["route."+r.name+".ns"], c["route."+r.name+".count"])/1e3)
	}
	for _, class := range []string{"tailored", "compares"} {
		m.set("engine."+class+".hit_frac", "ratio", frac(c[class+".hits"], c[class+".requests"]))
	}
	m.set("engine.tailored.requests", "count", c["tailored.requests"])
	m.set("engine.tailored.misses", "count", c["tailored.misses"])
	m.set("engine.tailored.store_writes", "count", c["tailored.store_writes"])
	m.set("engine.tailored.compute_ms_mean", "ms",
		frac(c["tailored.compute_ns"], c["tailored.misses"]-c["tailored.store_hits"])/1e6)

	solves := c["lp.solves"]
	m.set("lp.solves", "count", solves)
	m.set("lp.warm_start_hit_frac", "ratio", frac(c["lp.hits"], solves))
	m.set("lp.resume_frac", "ratio", frac(c["lp.resumes"], solves))
	m.set("lp.fallback_frac", "ratio", frac(c["lp.fallbacks"], solves))
	for _, p := range []string{"float", "exact", "revised", "parallel"} {
		m.set("lp."+p+"_pivots_per_solve", "count", frac(c["lp."+p+"_pivots"], solves))
	}
	m.set("lp.refactorizations", "count", c["lp.refactorizations"])
	m.set("lp.presolve_rows_removed", "count", c["lp.presolve_rows"])

	small, wide, big := c["rational.small_ops"], c["rational.wide_ops"], c["rational.big_fallbacks"]
	m.set("rational.small_ops", "count", small)
	m.set("rational.wide_ops", "count", wide)
	m.set("rational.big_fallbacks", "count", big)
	m.set("rational.word_frac", "ratio", frac(small+wide, small+wide+big))

	for _, k := range []string{"misses", "writes", "write_errors"} {
		m.set("store."+k, "count", c["store."+k])
	}
}
