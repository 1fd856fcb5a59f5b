// Multi-tenant serving surface: tenant lifecycle endpoints, the
// per-tenant compiled-runtime cache, and the per-tenant release /
// epoch / sample / accounting / tailored handlers.
//
// Identity and accounting live in the tenant registry
// (internal/tenant) and are never evicted; the compiled runtime — the
// Algorithm 1 release plan plus one precompiled sampler per level —
// is a pure function of the tenant's (n, α-ladder) and lives in a
// bounded LRU shared by ALL tenants, so a fleet of rarely-queried
// tenants cannot pin memory. An evicted runtime rebuilds on next use
// through the engine, whose in-memory cache and disk-backed artifact
// store make the rebuild a lookup, not a solve.

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/release"
	"minimaxdp/internal/tenant"
)

// maxTenantBody caps one POST /v1/tenants request body.
const maxTenantBody = 1 << 20

// defaultMaxTenantRuntimes bounds the compiled-runtime cache when the
// flag leaves it unset.
const defaultMaxTenantRuntimes = 64

// tenantSpec is the wire form of a tenant, used both by POST
// /v1/tenants and by the -tenants-config preload file. Every numeric
// privacy parameter is a rational STRING — floats never cross this
// boundary.
type tenantSpec struct {
	ID     string   `json:"id"`
	N      int      `json:"n"`
	Truth  *int     `json:"truth"`
	Levels []string `json:"levels"`
	Loss   string   `json:"loss,omitempty"`
	Width  int      `json:"width,omitempty"`
	Side   string   `json:"side,omitempty"` // "lo-hi" interval, as in /v1/tailored
	// MinAlpha is the privacy budget floor; empty = unmetered.
	MinAlpha string `json:"min_alpha,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// tenantConfigFile is the -tenants-config preload format.
type tenantConfigFile struct {
	Tenants []tenantSpec `json:"tenants"`
}

// toConfig validates the wire spec into a tenant.Config.
func (sp *tenantSpec) toConfig() (tenant.Config, error) {
	var cfg tenant.Config
	if sp.Truth == nil {
		return cfg, fmt.Errorf("tenant %q: truth is required", sp.ID)
	}
	if len(sp.Levels) == 0 {
		return cfg, fmt.Errorf("tenant %q: levels is required", sp.ID)
	}
	alphas := make([]*big.Rat, len(sp.Levels))
	for i, ls := range sp.Levels {
		a, err := parseWireRat(ls)
		if err != nil {
			return cfg, fmt.Errorf("tenant %q: level %d: %w", sp.ID, i+1, err)
		}
		alphas[i] = a
	}
	// Parse eagerly so config-file typos fail registration, not the
	// first tailored query.
	if _, err := lossFromConfig(sp.Loss, sp.Width); err != nil {
		return cfg, fmt.Errorf("tenant %q: %w", sp.ID, err)
	}
	side, err := parseSide(sp.Side)
	if err != nil {
		return cfg, fmt.Errorf("tenant %q: %w", sp.ID, err)
	}
	var minAlpha *big.Rat
	if sp.MinAlpha != "" {
		minAlpha, err = parseWireRat(sp.MinAlpha)
		if err != nil {
			return cfg, fmt.Errorf("tenant %q: min_alpha: %w", sp.ID, err)
		}
	}
	return tenant.Config{
		ID:        sp.ID,
		N:         sp.N,
		Truth:     *sp.Truth,
		Alphas:    alphas,
		Loss:      sp.Loss,
		LossWidth: sp.Width,
		Side:      side,
		MinAlpha:  minAlpha,
		Seed:      sp.Seed,
	}, nil
}

// --- compiled-runtime cache -----------------------------------------------

// tenantRuntime is a tenant's compiled serving state: the release
// plan and the per-level samplers with prerendered α strings. It
// holds NO tenant-private state (no truth, no PRNG, no accounting),
// so evicting and rebuilding one is invisible to the tenant — and a
// cache bug can at worst serve the wrong *public* artifact shape,
// which the tenant geometry check in Advance still rejects.
type tenantRuntime struct {
	plan      *release.Plan
	samplers  []*engine.Sampler
	alphaStrs []string
	lastUsed  atomic.Uint64
}

// runtimeCache is the global LRU over compiled tenant runtimes.
type runtimeCache struct {
	cap       int
	clock     atomic.Uint64
	builds    atomic.Uint64
	evictions atomic.Uint64

	mu      sync.Mutex
	entries map[string]*tenantRuntime
}

func newRuntimeCache(capacity int) *runtimeCache {
	if capacity <= 0 {
		capacity = defaultMaxTenantRuntimes
	}
	return &runtimeCache{cap: capacity, entries: make(map[string]*tenantRuntime)}
}

// get returns the compiled runtime for a tenant, building (and
// caching, evicting the least-recently-used other tenant past the
// bound) on miss. The build runs under the cache mutex: it is either
// an engine cache/disk lookup (fast) or a first-ever derivation,
// and serializing builds keeps eviction bookkeeping trivial.
func (c *runtimeCache) get(id string, build func() (*tenantRuntime, error)) (*tenantRuntime, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rt, ok := c.entries[id]; ok {
		rt.lastUsed.Store(c.clock.Add(1))
		return rt, nil
	}
	rt, err := build()
	if err != nil {
		return nil, err
	}
	c.builds.Add(1)
	rt.lastUsed.Store(c.clock.Add(1))
	c.entries[id] = rt
	for len(c.entries) > c.cap {
		var oldestID string
		var oldest uint64 = ^uint64(0)
		for eid, e := range c.entries {
			if eid == id {
				continue
			}
			if u := e.lastUsed.Load(); u < oldest {
				oldest, oldestID = u, eid
			}
		}
		if oldestID == "" {
			break
		}
		delete(c.entries, oldestID)
		c.evictions.Add(1)
	}
	return rt, nil
}

// drop removes a deleted tenant's runtime.
func (c *runtimeCache) drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, id)
}

// len reports the number of cached runtimes.
func (c *runtimeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// --- registration ---------------------------------------------------------

// buildRuntime compiles a tenant's serving state through the engine.
func (s *server) buildRuntime(t *tenant.Tenant) (*tenantRuntime, error) {
	alphas := t.Alphas()
	plan, err := s.eng.ReleasePlan(t.N(), alphas)
	if err != nil {
		return nil, err
	}
	samplers := make([]*engine.Sampler, len(alphas))
	alphaStrs := make([]string, len(alphas))
	for i, a := range alphas {
		samplers[i], err = s.eng.Sampler(context.Background(), engine.SamplerSpec{N: t.N(), Alpha: a})
		if err != nil {
			return nil, fmt.Errorf("compiling level %d sampler: %w", i+1, err)
		}
		alphaStrs[i] = a.RatString()
	}
	return &tenantRuntime{plan: plan, samplers: samplers, alphaStrs: alphaStrs}, nil
}

// registerTenant validates a spec, creates the tenant, compiles its
// runtime, and publishes its first epoch. On any failure the registry
// is left unchanged.
func (s *server) registerTenant(sp *tenantSpec) (*tenant.Tenant, error) {
	cfg, err := sp.toConfig()
	if err != nil {
		return nil, err
	}
	t, err := tenant.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.registry.Add(t); err != nil {
		return nil, err
	}
	rt, err := s.runtimes.get(t.ID(), func() (*tenantRuntime, error) { return s.buildRuntime(t) })
	if err == nil {
		_, err = t.Advance(rt.plan)
	}
	if err != nil {
		s.registry.Delete(t.ID())
		s.runtimes.drop(t.ID())
		return nil, err
	}
	return t, nil
}

// tenantSummary is the wire form of a registered tenant's public
// state. The truth, by design, has no wire form.
func tenantSummary(t *tenant.Tenant) map[string]interface{} {
	lossName, width := t.Loss()
	if lossName == "" {
		lossName = "absolute"
	}
	alphas := t.Alphas()
	levels := make([]string, len(alphas))
	for i, a := range alphas {
		levels[i] = a.RatString()
	}
	epoch := 0
	if e := t.Epoch(); e != nil {
		epoch = e.Epoch
	}
	out := map[string]interface{}{
		"id":     t.ID(),
		"n":      t.N(),
		"levels": levels,
		"loss":   lossName,
		"epoch":  epoch,
	}
	if lossName == "deadband" {
		out["width"] = width
	}
	if side := t.Side(); len(side) > 0 {
		out["side_points"] = len(side)
	}
	return out
}

func accountingBody(t *tenant.Tenant) map[string]interface{} {
	acc := t.Accounting()
	out := map[string]interface{}{
		"epochs":            acc.Epochs,
		"spent_alpha":       acc.SpentAlpha.RatString(),
		"next_draw_allowed": acc.NextDrawAllowed,
	}
	if acc.BudgetAlpha != nil {
		out["budget_alpha"] = acc.BudgetAlpha.RatString()
	}
	return out
}

// --- handlers -------------------------------------------------------------

// handleTenants serves the collection: GET lists, POST registers.
func (s *server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		ids := s.registry.IDs()
		out := make([]map[string]interface{}, 0, len(ids))
		for _, id := range ids {
			if t, ok := s.registry.Get(id); ok {
				out = append(out, tenantSummary(t))
			}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"tenants": out})
	case http.MethodPost:
		var sp tenantSpec
		body := http.MaxBytesReader(w, r.Body, maxTenantBody)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			writeAPIError(w, http.StatusBadRequest, "invalid_argument", "bad tenant spec: %v", err)
			return
		}
		t, err := s.registerTenant(&sp)
		if err != nil {
			s.writeTenantError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, tenantSummary(t))
	default:
		w.Header().Set("Allow", "GET, POST")
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s requires GET or POST", r.URL.Path)
	}
}

// writeTenantError maps registration/advance failures: duplicate ids
// conflict, an exhausted budget is a (well-understood) refusal, and
// anything else is a bad spec.
func (s *server) writeTenantError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tenant.ErrBudgetExhausted):
		writeAPIError(w, http.StatusForbidden, "budget_exhausted", "%v", err)
	case errors.Is(err, tenant.ErrDuplicateID):
		writeAPIError(w, http.StatusConflict, "conflict", "%v", err)
	default:
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
	}
}

// lookupTenant resolves {id} or writes the 404 envelope.
func (s *server) lookupTenant(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, bool) {
	id := r.PathValue("id")
	t, ok := s.registry.Get(id)
	if !ok {
		writeAPIError(w, http.StatusNotFound, "not_found", "no tenant %q", id)
		return nil, false
	}
	return t, true
}

// handleTenantByID serves one tenant: GET describes (summary +
// accounting), DELETE retires it.
func (s *server) handleTenantByID(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		t, ok := s.lookupTenant(w, r)
		if !ok {
			return
		}
		out := tenantSummary(t)
		out["accounting"] = accountingBody(t)
		writeJSON(w, http.StatusOK, out)
	case http.MethodDelete:
		id := r.PathValue("id")
		if !s.registry.Delete(id) {
			writeAPIError(w, http.StatusNotFound, "not_found", "no tenant %q", id)
			return
		}
		s.runtimes.drop(id)
		writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "deleted": true})
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s requires GET or DELETE", r.URL.Path)
	}
}

// tenantLevel reads ?level=K against a tenant's ladder (default 1).
func tenantLevel(r *http.Request, t *tenant.Tenant) (int, error) {
	lvlStr := r.URL.Query().Get("level")
	if lvlStr == "" {
		lvlStr = "1"
	}
	lvl, err := strconv.Atoi(lvlStr)
	if err != nil || lvl < 1 {
		return 0, fmt.Errorf("level must be a positive integer")
	}
	if lvl > t.Levels() {
		return 0, fmt.Errorf("level %d out of range 1..%d", lvl, t.Levels())
	}
	return lvl, nil
}

// handleTenantRelease returns the tenant's current-epoch released
// value at a level — the multi-tenant analogue of /v1/result.
func (s *server) handleTenantRelease(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookupTenant(w, r)
	if !ok {
		return
	}
	lvl, err := tenantLevel(r, t)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	e := t.Epoch()
	result, err := e.Result(lvl)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	a, err := t.Alpha(lvl)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.ID(),
		"epoch":  e.Epoch,
		"level":  lvl,
		"alpha":  a.RatString(),
		"result": result,
	})
}

// handleTenantEpoch advances the tenant to a fresh correlated draw,
// spending α₁ of its budget (Lemma 4 + sequential composition).
func (s *server) handleTenantEpoch(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookupTenant(w, r)
	if !ok {
		return
	}
	rt, err := s.runtimes.get(t.ID(), func() (*tenantRuntime, error) { return s.buildRuntime(t) })
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	e, err := t.Advance(rt.plan)
	if err != nil {
		s.writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant":     t.ID(),
		"epoch":      e.Epoch,
		"accounting": accountingBody(t),
	})
}

// handleTenantSample draws from the tenant's public level mechanism
// at a caller-claimed input, via the cached compiled runtime.
func (s *server) handleTenantSample(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookupTenant(w, r)
	if !ok {
		return
	}
	lvl, err := tenantLevel(r, t)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	q := r.URL.Query()
	input, count := 0, 1
	if inS := q.Get("input"); inS != "" {
		input, err = strconv.Atoi(inS)
		if err != nil || input < 0 || input > t.N() {
			writeAPIError(w, http.StatusBadRequest, "invalid_argument",
				"input must lie in [0,%d]", t.N())
			return
		}
	}
	if cntS := q.Get("count"); cntS != "" {
		count, err = strconv.Atoi(cntS)
		if err != nil || count < 1 || count > maxSampleCount {
			writeAPIError(w, http.StatusBadRequest, "invalid_argument",
				"count must lie in [1,%d]", maxSampleCount)
			return
		}
	}
	rt, err := s.runtimes.get(t.ID(), func() (*tenantRuntime, error) { return s.buildRuntime(t) })
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.ID(),
		"level":  lvl,
		"alpha":  rt.alphaStrs[lvl-1],
		"input":  input,
		"count":  count,
		"draws":  rt.samplers[lvl-1].SampleN(input, count),
	})
}

// handleTenantAccounting reports the tenant's exact privacy spend.
func (s *server) handleTenantAccounting(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookupTenant(w, r)
	if !ok {
		return
	}
	out := accountingBody(t)
	out["tenant"] = t.ID()
	writeJSON(w, http.StatusOK, out)
}

// handleTenantTailored runs the §2.5 tailored solve for the tenant's
// OWN configured consumer (loss, side) at one of its levels — the
// per-tenant answer to "what is the best mechanism for me?", which by
// Theorem 1 the tenant can also reach by post-processing its level's
// geometric release.
func (s *server) handleTenantTailored(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookupTenant(w, r)
	if !ok {
		return
	}
	if t.N() > s.maxTailoredN {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument",
			"tenant n %d exceeds the LP cap %d", t.N(), s.maxTailoredN)
		return
	}
	lvl, err := tenantLevel(r, t)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	lossName, width := t.Loss()
	lf, err := lossFromConfig(lossName, width)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	alpha, err := t.Alpha(lvl)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	ctx, cancel := s.solveContext(r)
	defer cancel()
	c := &consumer.Consumer{Loss: lf, Side: t.Side()}
	tl, err := s.eng.TailoredCtx(ctx, c, t.N(), alpha)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	resp := map[string]interface{}{
		"tenant":       t.ID(),
		"n":            t.N(),
		"level":        lvl,
		"alpha":        alpha.RatString(),
		"loss":         lf.Name(),
		"minimax_loss": tl.Loss.RatString(),
	}
	if r.URL.Query().Get("mech") == "1" {
		resp["mechanism"] = tl.Mechanism
	}
	writeJSON(w, http.StatusOK, resp)
}
