// Multi-tenant serving surface: the tenant spec codec and its caps,
// registration, and the tenant-only handlers (lifecycle, accounting,
// tailored). Release, epoch and sample share their handlers with the
// survey (server.go).
//
// Identity and accounting live in the tenant registry
// (internal/tenant). A tenant pins no compiled state: its release
// plan — a pure function of (n, α-ladder) — is fetched from the
// engine's plans cache on each use, and its level samplers are views
// of that plan's marginals. The engine's LRU bounds that state; an
// evicted plan comes back from the disk-backed artifact store, or is
// rebuilt.

package main

import (
	"context"
	"fmt"
	"math/big"
	"net/http"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/tenant"
)

// maxTenantBody caps one POST /v1/tenants request body.
const maxTenantBody = 1 << 20

// Caps on untrusted tenant geometry, checked before any plan is
// built. Registration builds the tenant's release plan — one exact
// Lemma 3 transition per adjacent level pair — before it answers, and
// that cost grows steeply with n and with the size of the α's. At the
// caps a registration measured 0.28 s with the ladder 1/5…4/5 and
// 10.5 s with four 60-digit rationals near the wire length limit
// (DESIGN §13.5 has the table).
const (
	maxTenantN      = 64
	maxTenantLevels = 4
)

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
	if sp.N > maxTenantN {
		return cfg, fmt.Errorf("tenant %q: n %d exceeds the cap %d", sp.ID, sp.N, maxTenantN)
	}
	if len(sp.Levels) > maxTenantLevels {
		return cfg, fmt.Errorf("tenant %q: %d levels exceed the cap %d", sp.ID, len(sp.Levels), maxTenantLevels)
	}
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
	side, err := parseSide(sp.Side, sp.N)
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

// --- registration ---------------------------------------------------------

// registerTenant validates a spec, creates the tenant, draws its
// first epoch, and only then adds it to the registry: a listed tenant
// always has a current cascade. A duplicate id is refused before the
// plan is fetched. The plan build holds no server lock, so it stalls
// no other request. A registration whose ctx ended meanwhile is not
// published; the build it started finishes in the engine, so the
// client's retry registers the tenant on the cached plan. On any
// failure the registry is left unchanged.
func (s *server) registerTenant(ctx context.Context, sp *tenantSpec) (*tenant.Tenant, error) {
	cfg, err := sp.toConfig()
	if err != nil {
		return nil, err
	}
	t, err := tenant.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, dup := s.registry.Get(t.ID()); dup {
		return nil, fmt.Errorf("%w: %q", tenant.ErrDuplicateID, t.ID())
	}
	if _, err := s.nextEpoch(ctx, t); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.registry.Add(t); err != nil {
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
	out := map[string]interface{}{
		"id":     t.ID(),
		"n":      t.N(),
		"levels": t.Ladder().Strings(),
		"loss":   lossName,
		"epoch":  t.Epoch().Epoch,
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
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxTenantBody), &sp); err != nil {
			writeAPIError(w, http.StatusBadRequest, "invalid_argument", "bad tenant spec: %v", err)
			return
		}
		t, err := s.registerTenant(r.Context(), &sp)
		if err != nil {
			writePrincipalError(w, err, http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusCreated, tenantSummary(t))
	default:
		w.Header().Set("Allow", "GET, POST")
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s requires GET or POST", r.URL.Path)
	}
}

// handleTenantByID serves one tenant: GET describes (summary +
// accounting), DELETE retires it.
func (s *server) handleTenantByID(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		t, _, ok := s.principal(w, r)
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
		writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "deleted": true})
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s requires GET or DELETE", r.URL.Path)
	}
}

// handleTenantAccounting reports the tenant's exact privacy spend.
func (s *server) handleTenantAccounting(w http.ResponseWriter, r *http.Request) {
	t, _, ok := s.principal(w, r)
	if !ok {
		return
	}
	out := accountingBody(t)
	out["tenant"] = t.ID()
	writeJSON(w, http.StatusOK, out)
}

// handleTenantTailored serves the tailored optimum for the tenant's
// OWN configured consumer (loss, side) at one of its levels — the
// per-tenant answer to "what is the best mechanism for me?". By
// Theorem 1 it is the tenant's optimal post-processing of its level's
// geometric release, and that is what the engine serves.
func (s *server) handleTenantTailored(w http.ResponseWriter, r *http.Request) {
	t, _, ok := s.principal(w, r)
	if !ok {
		return
	}
	if t.N() > s.maxTailoredN {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument",
			"tenant n %d exceeds the LP cap %d", t.N(), s.maxTailoredN)
		return
	}
	lvl, err := parseLevel(r.URL.Query().Get("level"), t.Levels())
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
