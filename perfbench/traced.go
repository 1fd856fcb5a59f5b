// The traced run: an in-process replay of a workload's generated inputs
// against the public functions of the engine, consumer, store, sample,
// release, tenant and baseline packages, with a span around every call.
// The engine's Config.Trace events become child spans (LP solves, store
// writes, artifact builds), and the engine's LP counters are
// read around each request, so every solve's path and tier counts are
// attributed to the request that caused it.

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
	diskstore "minimaxdp/internal/store"
	"minimaxdp/internal/tenant"
)

// span is one traced interval. Spans of one request share Req; Parent
// is the innermost enclosing span of the same request (-1 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // draws, for sampler spans
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// engineEvent is an engine trace event with its arrival time.
type engineEvent struct {
	ev engine.TraceEvent
	at int64
}

// lpSolve is one LP solve seen through the engine's trace events.
type lpSolve struct {
	path string // warmstart-hit, warmstart-resume or warmstart-fallback
	dur  time.Duration
}

// tracer records spans in memory; with on false every method is a
// pass-through, which is the untraced replay the overhead is measured
// against.
type tracer struct {
	on     bool
	t0     time.Time
	req    int
	spans  []span
	solves []lpSolve

	mu      sync.Mutex // the engine may emit from its solve goroutine
	pending []engineEvent
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// call runs fn inside a span.
func (t *tracer) call(layer, name string, fn func() error) error {
	return t.callN(layer, name, 0, fn)
}

func (t *tracer) callN(layer, name string, count int, fn func() error) error {
	if !t.on {
		return fn()
	}
	start := t.now()
	err := fn()
	t.spans = append(t.spans, span{Req: t.req, Layer: layer, Name: name, Start: start, End: t.now(), Count: count})
	return err
}

// hook is the engine's Config.Trace.
func (t *tracer) hook(ev engine.TraceEvent) {
	at := t.now()
	t.mu.Lock()
	t.pending = append(t.pending, engineEvent{ev, at})
	t.mu.Unlock()
}

// classLayer maps an engine artifact class to the layer whose code its
// computation runs.
var classLayer = map[string]string{
	"tailored":     "lp",
	"interactions": "lp",
	"compares":     "consumer",
	"mechanisms":   "baseline",
	"samplers":     "sample",
	"plans":        "release",
	"transitions":  "release",
	"inverses":     "release",
}

// endRequest turns the request's engine events into child spans, links
// every span of the request to its innermost enclosing span, and starts
// the next request.
func (t *tracer) endRequest(first int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	evs := t.pending
	t.pending = nil
	t.mu.Unlock()
	doneAt := map[string]int64{}
	path := map[string]string{}
	for _, e := range evs {
		k := e.ev.Artifact + "|" + e.ev.Key
		switch e.ev.Kind {
		case engine.TraceWarmStartHit, engine.TraceWarmStartResume, engine.TraceWarmStartFallback:
			path[k] = string(e.ev.Kind)
		case engine.TraceSolveDone:
			doneAt[k] = e.at
			name := e.ev.Artifact + ".compute"
			if e.ev.Artifact == "mechanisms" {
				name = "build." + baselineKind(e.ev.Key)
			}
			t.spans = append(t.spans, span{Req: t.req, Layer: classLayer[e.ev.Artifact], Name: name,
				Start: e.at - int64(e.ev.Duration), End: e.at})
			if p, ok := path[k]; ok && e.ev.Err == nil {
				t.solves = append(t.solves, lpSolve{path: p, dur: e.ev.Duration})
			}
		case engine.TraceStoreWrite:
			if at, ok := doneAt[k]; ok {
				t.spans = append(t.spans, span{Req: t.req, Layer: "store", Name: "store.put", Start: at, End: e.at})
			}
		}
	}
	link(t.spans[first:], first)
	t.req++
}

// baselineKind reads the baseline kind out of a mechanisms-class key:
// "bl=<spec>|n=…" for the baselines, a bare geometric key otherwise.
func baselineKind(key string) string {
	rest, ok := strings.CutPrefix(key, "bl=")
	if !ok {
		return string(baseline.Geometric)
	}
	spec, _, _ := strings.Cut(rest, "|")
	kind, _, _ := strings.Cut(spec, ":")
	return kind
}

// link assigns IDs and parents within one request's spans by
// containment.
func link(spans []span, base int) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	var stack []int
	for _, i := range idx {
		s := &spans[i]
		s.ID = base + i
		for len(stack) > 0 && spans[stack[len(stack)-1]].End <= s.Start {
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
}

// selfTimes sums each layer's self time: a span's duration minus the
// time its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	byID := map[int]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent >= 0 {
			child[p] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		self := s.dur() - child[i]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += self
	}
	return out
}

// tenantRuntime is a tenant's compiled runtime, as dpserver caches it:
// its release plan plus one sampler per level. Hot-reads has fewer
// tenants than dpserver's runtime cache holds, so none is evicted.
type tenantRuntime struct {
	plan     *release.Plan
	samplers []*engine.Sampler
}

// inproc is the in-process counterpart of one dpserver.
type inproc struct {
	ctx      context.Context
	eng      *engine.Engine
	tr       *tracer
	samplers []*engine.Sampler
	tenants  map[string]*tenant.Tenant
	runtimes map[string]*tenantRuntime
	buf      []int
	checked  map[string]bool
	// unverified holds the tailored answers not yet checked; the checks
	// run after the timed replay, so no span or timing includes them.
	unverified []tailoredAnswer

	// family breakdown of LP work, keyed by loss family and side kind
	families map[string]*familyStats
}

type familyStats struct {
	solves, hits, fallbacks float64
	solveTime               time.Duration
}

var serverAlphas = []string{"1/2", "2/3", "4/5"}

// newInproc builds the engine and the server's level samplers; hooked
// installs the tracer as the engine's trace hook.
func newInproc(ctx context.Context, dir string, tr *tracer, hooked bool) (*inproc, error) {
	st, err := diskstore.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{Seed: 1, Store: st}
	if hooked {
		cfg.Trace = tr.hook
	}
	p := &inproc{
		ctx:      ctx,
		eng:      engine.New(cfg),
		tr:       tr,
		tenants:  map[string]*tenant.Tenant{},
		runtimes: map[string]*tenantRuntime{},
		buf:      make([]int, 4096),
		checked:  map[string]bool{},
		families: map[string]*familyStats{},
	}
	alphas := parseAlphas(serverAlphas)
	if _, err := p.eng.ReleasePlan(serverN, alphas); err != nil {
		return nil, err
	}
	for _, a := range alphas {
		s, err := p.eng.Sampler(ctx, engine.SamplerSpec{N: serverN, Alpha: a})
		if err != nil {
			return nil, err
		}
		p.samplers = append(p.samplers, s)
	}
	return p, nil
}

func parseAlphas(ss []string) []*big.Rat {
	out := make([]*big.Rat, len(ss))
	for i, s := range ss {
		out[i] = rational.MustParse(s)
	}
	return out
}

// model builds the consumer model of a wire spec on {0..n}.
func model(c consumerSpec, n int) (consumer.Model, error) {
	if c.Model == "bayesian" {
		lf, err := loss.ParseSpec(c.Loss, c.Width)
		if err != nil {
			return nil, err
		}
		return &consumer.Bayesian{Loss: lf, Prior: consumer.UniformPrior(n)}, nil
	}
	return buildConsumer(c)
}

// runtime returns a tenant's compiled runtime, building it on first
// use.
func (p *inproc) runtime(t *tenant.Tenant) (*tenantRuntime, error) {
	if rt, ok := p.runtimes[t.ID()]; ok {
		return rt, nil
	}
	rt := &tenantRuntime{}
	err := p.tr.call("engine", "ReleasePlan", func() error {
		var err error
		rt.plan, err = p.eng.ReleasePlanCtx(p.ctx, t.N(), t.Alphas())
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, a := range t.Alphas() {
		var s *engine.Sampler
		err := p.tr.call("engine", "Sampler", func() error {
			var err error
			s, err = p.eng.Sampler(p.ctx, engine.SamplerSpec{N: t.N(), Alpha: a})
			return err
		})
		if err != nil {
			return nil, err
		}
		rt.samplers = append(rt.samplers, s)
	}
	p.runtimes[t.ID()] = rt
	return rt, nil
}

// exec replays one op in-process, with the same checks as the HTTP run.
func (p *inproc) exec(o op) error {
	tr := p.tr
	first, solves := len(tr.spans), len(tr.solves)
	// The LP counters are read only where a solve can happen: a
	// Metrics snapshot costs more than a cached read.
	lpOp := tr.on && (o.kind == opTailored || o.kind == opCompare)
	var before engine.LPSolveStats
	if lpOp {
		before = p.eng.Metrics().LP
	}
	start := tr.now()
	err := p.execOp(o)
	if tr.on {
		tr.spans = append(tr.spans, span{Req: tr.req, Layer: "bench", Name: o.kind.String(), Start: start, End: tr.now()})
	}
	tr.endRequest(first)
	if err == nil && lpOp {
		p.family(o, before, p.eng.Metrics().LP, tr.solves[solves:])
	}
	return err
}

// family folds one request's LP work into its loss-family and
// side-kind cell.
func (p *inproc) family(o op, before, after engine.LPSolveStats, solves []lpSolve) {
	n := after.Solves - before.Solves
	if n == 0 {
		return
	}
	k := lossFamily(o.cons) + "." + sideKind(o.cons)
	f := p.families[k]
	if f == nil {
		f = &familyStats{}
		p.families[k] = f
	}
	f.solves += float64(n)
	f.hits += float64(after.WarmStartHits - before.WarmStartHits)
	f.fallbacks += float64(after.Fallbacks - before.Fallbacks)
	for _, s := range solves {
		f.solveTime += s.dur
	}
}

func (p *inproc) execOp(o op) error {
	tr := p.tr
	switch o.kind {
	case opSample:
		draws := p.buf[:o.count]
		_ = tr.callN("sample", "Sampler.SampleInto", o.count, func() error {
			p.samplers[o.level-1].SampleInto(o.input, draws)
			return nil
		})
		return checkRange(draws, serverN)
	case opTailored, opCompare:
		return p.lpOp(o)
	case opResult:
		return nil
	case opRegister:
		sp := o.spec
		var t *tenant.Tenant
		err := tr.call("tenant", "New", func() error {
			var err error
			t, err = tenant.New(tenant.Config{ID: sp.ID, N: sp.N, Truth: sp.Truth,
				Alphas: parseAlphas(sp.Levels), Loss: sp.Loss, Seed: sp.Seed})
			return err
		})
		if err != nil {
			return err
		}
		p.tenants[sp.ID] = t
		return p.advance(t)
	}
	t, ok := p.tenants[o.tenant]
	if !ok {
		return fmt.Errorf("no tenant %q", o.tenant)
	}
	switch o.kind {
	case opTenantRelease:
		var r int
		err := tr.call("tenant", "Epoch.Result", func() error {
			var err error
			r, err = t.Epoch().Result(o.level)
			return err
		})
		if err != nil {
			return err
		}
		return checkRange([]int{r}, t.N())
	case opTenantSample:
		rt, err := p.runtime(t)
		if err != nil {
			return err
		}
		draws := p.buf[:o.count]
		_ = tr.callN("sample", "Sampler.SampleInto", o.count, func() error {
			rt.samplers[o.level-1].SampleInto(o.input, draws)
			return nil
		})
		return checkRange(draws, t.N())
	}
	return fmt.Errorf("op %s has no in-process replay", o.kind)
}

func (p *inproc) advance(t *tenant.Tenant) error {
	rt, err := p.runtime(t)
	if err != nil {
		return err
	}
	return p.tr.call("tenant", "Advance", func() error {
		_, err := t.Advance(rt.plan)
		return err
	})
}

func checkRange(draws []int, n int) error {
	for _, d := range draws {
		if d < 0 || d > n {
			return fmt.Errorf("draw %d outside [0,%d]", d, n)
		}
	}
	return nil
}

// tailoredAnswer is a replayed tailored request with its answer.
type tailoredAnswer struct {
	o  op
	tl *consumer.Tailored
}

// lpOp replays a tailored or compare request. A minimax scorecard must
// have geometric gap 0; a tailored answer is queued for verify, as each
// key's first answer is in the HTTP run.
func (p *inproc) lpOp(o op) error {
	tr := p.tr
	m, err := model(o.cons, o.n)
	if err != nil {
		return err
	}
	alpha := rational.MustParse(o.alpha)
	if o.kind == opTailored {
		var tl *consumer.Tailored
		err = tr.call("engine", "TailoredCtx", func() error {
			var err error
			tl, err = p.eng.TailoredCtx(p.ctx, m, o.n, alpha)
			return err
		})
		if err == nil && !p.checked[o.key()] {
			p.checked[o.key()] = true
			p.unverified = append(p.unverified, tailoredAnswer{o, tl})
		}
	} else {
		var cmp *baseline.Comparison
		err = tr.call("engine", "CompareCtx", func() error {
			var err error
			cmp, err = p.eng.CompareCtx(p.ctx, engine.CompareSpec{N: o.n, Alpha: alpha, Model: m})
			return err
		})
		if err == nil && cmp.Model == "minimax" {
			for _, e := range cmp.Entries {
				if e.Spec == "geometric" && e.Gap.Sign() != 0 {
					err = fmt.Errorf("geometric gap %s, want 0", e.Gap.RatString())
				}
			}
		}
	}
	return err
}

// replayOps is the input sequence of a workload's replay: its set-up
// requests, which run untraced, then its measured requests.
func replayOps(cfg config, oc *outcome) (setup, measured []op) {
	switch cfg.workload {
	case "hot-reads":
		hs := hotWarm(cfg.seed, cfg.heldOut)
		setup = append(append(append([]op{}, hs.tenants...), hs.tailored...), hs.compares...)
		streams := []func() op{hotStream(cfg.seed, cfg.heldOut, 0, hs), hotStream(cfg.seed, cfg.heldOut, 1, hs)}
		// The replay covers the requests the HTTP run completed, up
		// to a cap that keeps the traced run short.
		n := len(oc.timings)
		if n > 40000 {
			n = 40000
		}
		for i := 0; i < n; i++ {
			measured = append(measured, streams[i%2]())
		}
		return setup, measured
	default:
		return nil, coldPass(cfg.seed, cfg.heldOut)
	}
}

// traceResult is what the replays measured.
type traceResult struct {
	spans     []span
	solves    []lpSolve
	families  map[string]*familyStats
	traced    time.Duration
	untraced  time.Duration
	httpP50us float64 // client p50 latency of count=1 /v1/sample in the HTTP run
	micro     metrics
}

// replay runs the workload's inputs in-process twice, untraced and
// traced, each against a fresh engine and an empty store, then times a
// few layer kernels directly. Only the measured requests are timed and
// traced.
func replay(ctx context.Context, cfg config, oc *outcome) (*traceResult, error) {
	setup, measured := replayOps(cfg, oc)
	res := &traceResult{micro: metrics{}}
	for _, traced := range []bool{false, true} {
		dir := filepath.Join(cfg.work, fmt.Sprintf("replay-%v", traced))
		tr := &tracer{t0: time.Now()}
		p, err := newInproc(ctx, dir, tr, traced)
		if err != nil {
			return nil, err
		}
		for _, o := range setup {
			if err := p.exec(o); err != nil {
				return nil, fmt.Errorf("replaying set-up %s: %w", o.kind, err)
			}
		}
		tr.mu.Lock()
		tr.pending = nil
		tr.mu.Unlock()
		tr.on = traced
		start := time.Now()
		for _, o := range measured {
			if err := p.exec(o); err != nil {
				return nil, fmt.Errorf("replaying %s: %w", o.kind, err)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		elapsed := time.Since(start)
		for _, a := range p.unverified {
			if err := verifyTailored(a.o, a.tl.Mechanism, a.tl.Loss); err != nil {
				return nil, fmt.Errorf("replayed %s: %w", a.o.kind, err)
			}
		}
		if traced {
			res.traced = elapsed
			res.spans, res.solves, res.families = tr.spans, tr.solves, p.families
		} else {
			res.untraced = elapsed
		}
	}
	var lats []float64
	for _, t := range oc.timings {
		if t.kind == opSample && t.count == 1 {
			lats = append(lats, float64(t.lat)/1e3)
		}
	}
	res.httpP50us = median(lats)
	if err := micro(res.micro); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg, res.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// micro times layer kernels that every workload shares: dyadic alias
// draws and builds, batched engine draws, and release-plan builds.
func micro(m metrics) error {
	alpha := rational.MustParse(serverAlphas[0])
	g, err := mechanism.Geometric(serverN, alpha)
	if err != nil {
		return err
	}
	var builds []float64
	var alias *sample.DyadicAlias
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i <= serverN; i++ {
			if alias, err = sample.NewDyadicAlias(g.Row(i)); err != nil {
				return err
			}
		}
		builds = append(builds, ms(time.Since(t0)))
	}
	m.set("sample.alias_build_ms", "ms", median(builds))

	const words = 1 << 18
	var sink int
	var perWord []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for w := uint64(0); w < words; w++ {
			sink += alias.SampleWord(sample.Mix64(w))
		}
		perWord = append(perWord, float64(time.Since(t0))/words)
	}
	if sink < 0 {
		return fmt.Errorf("impossible draw sum")
	}
	m.set("sample.word_ns", "ns", median(perWord))

	eng := engine.New(engine.Config{Seed: 1})
	s, err := eng.Sampler(context.Background(), engine.SamplerSpec{N: serverN, Alpha: alpha})
	if err != nil {
		return err
	}
	buf := make([]int, 1024)
	var perDraw []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			s.SampleInto(i%(serverN+1), buf)
		}
		perDraw = append(perDraw, float64(time.Since(t0))/(64*1024))
	}
	m.set("engine.sampler_ns_per_draw", "ns", median(perDraw))

	var plans []float64
	for _, l := range ladders {
		t0 := time.Now()
		if _, err := release.NewPlan(16, parseAlphas(l)); err != nil {
			return err
		}
		plans = append(plans, ms(time.Since(t0)))
	}
	m.set("release.plan_build_ms", "ms", median(plans))
	return nil
}

// writeSpans writes the traced replay's spans, one JSON object a line,
// when the run ends.
func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, cfg.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the self-time layers of the traced replay; "bench" is the
// replay loop itself, outside any layer call. Release plans are built
// only during set-up, which is not traced, so "release" is not one.
var layers = []string{"bench", "engine", "lp", "consumer", "baseline", "store", "sample", "tenant"}

// families are the loss-family and side-kind cells of the LP breakdown
// (the cold catalogue's cells).
var families = []string{
	"absolute.full", "absolute.interval", "squared.full", "squared.interval",
	"zero-one.full", "zero-one.interval", "deadband1.full", "deadband1.interval",
	"bayesian_absolute.full", "bayesian_squared.full",
}

// report writes the traced run's per-layer metrics.
func (r *traceResult) report(m metrics) {
	for k, v := range r.micro {
		m[k] = v
	}
	self := selfTimes(r.spans)
	for _, l := range layers {
		m.set("self_ms."+l, "ms", ms(self[l]))
	}
	m.set("trace.spans", "count", float64(len(r.spans)))
	m.set("trace.overhead_frac", "ratio", frac(float64(r.traced-r.untraced), float64(r.untraced)))

	byName := map[string][]float64{}
	for _, s := range r.spans {
		byName[s.Layer+"/"+s.Name] = append(byName[s.Layer+"/"+s.Name], float64(s.dur()))
	}
	// Hits are TailoredCtx spans with no child computation.
	children := map[int]bool{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = true
		}
	}
	var hits, draw1 []float64
	for _, s := range r.spans {
		if s.Name == "TailoredCtx" && !children[s.ID] {
			hits = append(hits, float64(s.dur()))
		}
		if s.Name == "Sampler.SampleInto" && s.Count == 1 {
			draw1 = append(draw1, float64(s.dur())/1e3)
		}
	}
	m.set("engine.hit_path_ns", "ns", median(hits))
	overhead := 0.0
	if len(draw1) > 0 && r.httpP50us > 0 {
		overhead = r.httpP50us - median(draw1)
	}
	m.set("dpserver.socket_overhead_us", "us", overhead)
	m.set("store.put_ms_p50", "ms", median(byName["store/store.put"])/1e6)

	var hitMs, fbMs []float64
	var total, fbTotal time.Duration
	for _, s := range r.solves {
		total += s.dur
		switch s.path {
		case string(engine.TraceWarmStartHit):
			hitMs = append(hitMs, ms(s.dur))
		case string(engine.TraceWarmStartFallback):
			fbMs = append(fbMs, ms(s.dur))
			fbTotal += s.dur
		}
	}
	m.set("lp.hit_ms_p50", "ms", median(hitMs))
	m.set("lp.fallback_ms_p50", "ms", median(fbMs))
	m.set("lp.fallback_time_frac", "ratio", frac(float64(fbTotal), float64(total)))

	for _, spec := range baseline.DefaultSet() {
		kind := string(spec.Kind)
		m.set("baseline.build_ms."+kind, "ms", median(byName["baseline/build."+kind])/1e6)
	}
	for _, f := range families {
		st := r.families[f]
		if st == nil {
			st = &familyStats{}
		}
		m.set("family."+f+".solves", "count", st.solves)
		m.set("family."+f+".hit_frac", "ratio", frac(st.hits, st.solves))
		m.set("family."+f+".fallback_frac", "ratio", frac(st.fallbacks, st.solves))
		m.set("family."+f+".solve_ms", "ms", ms(st.solveTime))
	}
}
