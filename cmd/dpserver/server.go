// Server core: state, routing, instrumentation, and handlers.
// main.go owns flags, the http.Server, and the shutdown path.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/database"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
	diskstore "minimaxdp/internal/store"
	"minimaxdp/internal/tenant"
)

// defaultMaxTailoredN caps the domain size accepted by /v1/tailored:
// a tailored miss is an exact LP solve, the interaction LP against
// G_{n,α} with (n+1)²+1 variables, and is meant here as an interactive
// demonstration, not a bulk workload. The cap sits at 32: measured
// uncached solve times for the four wire losses at α ∈ {1/2, 1/3} on
// a 2-vCPU amd64 container are 1.1–1.8 ms at n=8, 8–16 ms at n=16,
// 34–157 ms at n=24 and 0.09–0.24 s at n=32, with zero-one at n=32,
// α=1/3, the outlier at 3.4 s (engine.DefaultMaxLPDomainN; DESIGN §9
// has the slower keys). Requests beyond the cap return 400 rather than
// queueing.
const defaultMaxTailoredN = 32

// maxSampleCount caps one /v1/sample batch.
const maxSampleCount = 4096

// routeStat accumulates per-route serving counters.
type routeStat struct {
	count  atomic.Uint64
	errors atomic.Uint64
	nanos  atomic.Uint64
}

// serverConfig collects everything newServer needs; main fills it
// from flags, tests construct it literally.
type serverConfig struct {
	N            int     // synthetic population size
	City         string  // survey city
	FluRate      float64 // synthetic flu rate among adults
	Levels       string  // increasing privacy levels, comma-separated
	Seed         int64   // PRNG seed
	MaxTailoredN int     // largest n accepted by /v1/tailored (0 = default)
	// MaxInFlightSolves bounds concurrent LP solves and release-plan
	// builds (0 = engine default).
	MaxInFlightSolves int
	// SolveTimeout caps how long one LP-backed request waits for its
	// solve; exceeding it returns 504 while the solve runs on and is
	// cached. Zero disables the server-side deadline (a client
	// disconnect still ends the wait).
	SolveTimeout time.Duration
	// Trace, when non-nil, receives the engine's span events.
	Trace engine.TraceFunc
	// StoreDir, when non-empty, roots the disk-backed artifact store:
	// the engine persists its tailored solutions and compare
	// scorecards there, so a restart against the same directory
	// warm-boots with zero LP solves.
	StoreDir string
	// TenantsConfig, when non-empty, is a JSON file of tenant specs
	// ({"tenants": [...]}) registered at startup — the declarative
	// sibling of POST /v1/tenants.
	TenantsConfig string
}

// server wires the engine and the release principals: the built-in
// survey and the registered tenants, each a *tenant.Tenant (secret
// count, α-ladder, one correlated cascade per epoch behind an atomic
// pointer). Request handling is lock-free except for the rare epoch
// advance, which locks only its own principal's PRNG.
type server struct {
	eng          *engine.Engine
	city         string
	maxTailoredN int
	solveTimeout time.Duration
	logRequests  bool
	start        time.Time

	// The survey: not in the registry, so /v1/tenants never lists it.
	// Its release plan comes from the engine's plans cache like a
	// tenant's (planOf).
	survey *tenant.Tenant

	// ready gates /readyz: true once serving, false when draining so
	// load balancers stop routing before in-flight requests finish.
	ready atomic.Bool

	routes map[string]*routeStat

	// Registered tenants pin nothing: their plans and samplers come
	// from the engine's caches on each use. store is nil when
	// -store-dir is unset.
	registry *tenant.Registry
	store    *diskstore.Store
}

// maxWireRatLen bounds the byte length of a rational read from a
// request or the command line. rational.Parse keeps a value's size
// linear in its length; this bound keeps the length small, so the
// numbers a request hands to G_{n,α} or an LP stay within a few
// hundred bits. 64 bytes holds any α a deployment would choose.
const maxWireRatLen = 64

// parseWireRat parses one wire rational: at most maxWireRatLen bytes,
// in a form rational.Parse accepts.
func parseWireRat(s string) (*big.Rat, error) {
	if len(s) > maxWireRatLen {
		return nil, fmt.Errorf("rational of %d bytes exceeds the %d-byte limit", len(s), maxWireRatLen)
	}
	return rational.Parse(s)
}

// parseLevels parses the -levels flag: comma-separated rationals that
// must be strictly increasing within (0,1) (release.CheckLevels, the
// one ladder rule), so the fuzz target FuzzParseLevels can exercise
// parser and invariants together.
func parseLevels(s string) ([]*big.Rat, error) {
	var out []*big.Rat
	for i, part := range strings.Split(s, ",") {
		a, err := parseWireRat(part)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i+1, err)
		}
		out = append(out, a)
	}
	if err := release.CheckLevels(out); err != nil {
		return nil, err
	}
	return out, nil
}

// lossFromConfig resolves a stored (name, width) loss pair — the
// tenant-config form — through the loss registry. The integer width
// is a wire parameter of the deadband family only; a nonzero width on
// any other family is a spec error (loss.ParseSpec owns that rule;
// the old per-surface parser silently ignored it).
func lossFromConfig(name string, width int) (loss.Function, error) {
	ws := ""
	if width != 0 {
		ws = strconv.Itoa(width)
	} else if c, err := loss.CanonicalName(name); err == nil && c == "deadband" {
		ws = "0"
	}
	return loss.ParseSpec(name, ws)
}

// parseSide resolves a "lo-hi" side-information interval on {0..n};
// empty means no side information (the full domain). Points above n
// carry no information — consumers clip the set to {0..n} and tenants
// reject it — so the interval is built only up to the first of them:
// an untrusted hi cannot make it allocate more than n+2 points.
func parseSide(s string, n int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return nil, fmt.Errorf("side must be lo-hi, got %q", s)
	}
	l, err := strconv.Atoi(lo)
	if err != nil {
		return nil, fmt.Errorf("side lower bound %q: %w", lo, err)
	}
	h, err := strconv.Atoi(hi)
	if err != nil {
		return nil, fmt.Errorf("side upper bound %q: %w", hi, err)
	}
	if l < 0 || h < l {
		return nil, fmt.Errorf("side %q: need 0 ≤ lo ≤ hi", s)
	}
	if h > n+1 {
		h = max(l, n+1)
	}
	return consumer.Interval(l, h), nil
}

func newServer(cfg serverConfig) (*server, error) {
	alphas, err := parseLevels(cfg.Levels)
	if err != nil {
		return nil, fmt.Errorf("bad levels: %w", err)
	}
	var artifacts *diskstore.Store
	if cfg.StoreDir != "" {
		artifacts, err = diskstore.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("opening artifact store: %w", err)
		}
	}
	maxN := cfg.MaxTailoredN
	if maxN <= 0 {
		maxN = defaultMaxTailoredN
	}
	eng := engine.New(engine.Config{
		Seed:              cfg.Seed,
		MaxInFlightSolves: cfg.MaxInFlightSolves,
		// Keep the engine-side guard in lockstep with the HTTP-level
		// cap so a raised -max-tailored-n raises both.
		MaxLPDomainN: maxN,
		Trace:        cfg.Trace,
		Store:        artifacts,
	})
	db := database.Synthetic(cfg.N, cfg.City, cfg.FluRate, sample.NewRand(cfg.Seed))
	// The survey's cascade draws from its own stream, not from the
	// one that drew the database.
	survey, err := tenant.New(tenant.Config{
		ID:     "survey",
		N:      cfg.N,
		Truth:  database.FluQuery(cfg.City).Eval(db),
		Alphas: alphas,
		Seed:   int64(sample.Mix64(uint64(cfg.Seed))),
	})
	if err != nil {
		return nil, err
	}
	s := &server{
		eng:          eng,
		city:         cfg.City,
		maxTailoredN: maxN,
		solveTimeout: cfg.SolveTimeout,
		start:        time.Now(),
		survey:       survey,
		routes:       make(map[string]*routeStat),
		registry:     tenant.NewRegistry(),
		store:        artifacts,
	}
	if _, err := s.nextEpoch(context.Background(), survey); err != nil {
		return nil, err
	}
	if cfg.TenantsConfig != "" {
		if err := s.loadTenantsConfig(cfg.TenantsConfig); err != nil {
			return nil, err
		}
	}
	s.ready.Store(true)
	return s, nil
}

// loadTenantsConfig registers every tenant spec from a JSON config
// file. Registration failures are fatal at startup: a half-loaded
// tenant fleet is worse than a crash loop with a clear message.
func (s *server) loadTenantsConfig(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("tenants config: %w", err)
	}
	var file tenantConfigFile
	if err := decodeStrict(bytes.NewReader(data), &file); err != nil {
		return fmt.Errorf("tenants config %s: %w", path, err)
	}
	for i := range file.Tenants {
		if _, err := s.registerTenant(context.Background(), &file.Tenants[i]); err != nil {
			return fmt.Errorf("tenants config %s: %w", path, err)
		}
	}
	return nil
}

// decodeStrict decodes exactly one JSON value from r into v. Unknown
// fields and trailing data are errors, so a misspelled field (say
// "min_alpa") fails the request or the config load instead of being
// dropped. Every JSON body and config file the server reads goes
// through here.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// planOf returns principal t's release plan, the survey's included,
// from the engine's plans cache by its ladder's key on every use, so
// the engine's LRU is the one bound on a principal's compiled state.
// An evicted plan is rebuilt on its next use. A cache hit allocates
// nothing.
func (s *server) planOf(ctx context.Context, t *tenant.Tenant) (*release.Plan, error) {
	return s.eng.Plan(ctx, t.Ladder())
}

// nextEpoch draws a fresh correlated cascade for principal t and
// publishes it as t's next epoch (spending α₁ of a metered tenant's
// budget).
func (s *server) nextEpoch(ctx context.Context, t *tenant.Tenant) (*tenant.Epoch, error) {
	plan, err := s.planOf(ctx, t)
	if err != nil {
		return nil, err
	}
	return t.Advance(plan)
}

// levelSampler is the one sample path of the survey and the tenants:
// principal t's plan (planOf), its level-lvl marginal G_{n,α}, a view
// over it, and the level's α as the ladder rendered it. With the plan
// cached it allocates nothing.
//
//dpvet:hotpath
func (s *server) levelSampler(r *http.Request, t *tenant.Tenant, lvl int) (engine.Sampler, string, error) {
	plan, err := s.planOf(r.Context(), t)
	if err != nil {
		return engine.Sampler{}, "", err
	}
	m, err := plan.Marginal(lvl)
	if err != nil {
		return engine.Sampler{}, "", err
	}
	return s.eng.View(m), t.Ladder().AlphaString(lvl), nil
}

// --- error envelope -------------------------------------------------------

// apiError is the uniform error payload of the /v1 surface: a stable
// machine-readable code plus a human-readable message, wrapped as
// {"error": {"code": ..., "message": ...}}.
//
// Codes and their statuses:
//
//	invalid_argument   400  a query parameter or tenant spec failed validation
//	budget_exhausted   403  tenant privacy budget refuses another epoch draw
//	not_found          404  unknown /v1 route or tenant id
//	method_not_allowed 405  wrong HTTP method for the route
//	conflict           409  tenant id already registered
//	gone               410  retired legacy unversioned path (Link points at /v1)
//	shed               429  solve rejected: in-flight solve bound hit
//	canceled           503  client stopped waiting; a started solve runs on and is cached
//	deadline_exceeded  504  the wait exceeded -solve-timeout; a started solve runs on and is cached
//	internal           500  unexpected server-side failure
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("dpserver: encode: %v", err)
	}
}

func writeAPIError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeJSON(w, status, errorEnvelope{Error: apiError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeSolveError maps an engine/context error from an LP-backed
// handler to its /v1 status: load shedding is retryable-after-backoff
// (429), a client that hung up gets 503 (nobody is listening, but
// proxies may log it), and a wait that outlived the server's own
// deadline is a gateway-style timeout (504). In the last two cases a
// started solve still finishes and is cached, so a retry joins it or
// hits. Anything else is a parameter the engine rejected (400).
func writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrSaturated):
		writeAPIError(w, http.StatusTooManyRequests, "shed", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeAPIError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"solve outlasted the server's solve timeout; it continues, retry later")
	case errors.Is(err, context.Canceled):
		writeAPIError(w, http.StatusServiceUnavailable, "canceled",
			"request canceled before the solve finished")
	default:
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
	}
}

// writePrincipalError maps a failure on a principal's release path —
// registering it, fetching its plan, advancing its epoch — to its /v1
// status: a duplicate id conflicts (409), a budget floor refuses the
// draw (403), a saturated engine shed the plan build (429, retry
// after backoff), and a client gone before its request was served
// (say, a registration not yet published) gets 503. Anything else
// takes the caller's fallback: 400 for a registration spec, 500 on a
// principal that already serves.
func writePrincipalError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, tenant.ErrDuplicateID):
		writeAPIError(w, http.StatusConflict, "conflict", "%v", err)
	case errors.Is(err, tenant.ErrBudgetExhausted):
		writeAPIError(w, http.StatusForbidden, "budget_exhausted", "%v", err)
	case errors.Is(err, engine.ErrSaturated):
		writeAPIError(w, http.StatusTooManyRequests, "shed", "%v", err)
	case errors.Is(err, context.Canceled):
		writeAPIError(w, http.StatusServiceUnavailable, "canceled",
			"request canceled before it was served")
	case fallback == http.StatusBadRequest:
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
	default:
		writeAPIError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

// --- routing --------------------------------------------------------------

// handler builds the instrumented route table: the versioned /v1
// surface (single-survey endpoints plus the multi-tenant tree), 410
// tombstones at the retired legacy unversioned paths, and the
// unversioned operational probes (/healthz, /readyz).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		path   string
		method string
		h      http.HandlerFunc
	}{
		{"/v1/result", http.MethodGet, s.handleRelease},
		{"/v1/levels", http.MethodGet, s.handleLevels},
		{"/v1/epoch", http.MethodPost, s.handleEpoch},
		{"/v1/mechanism", http.MethodGet, s.handleMechanism},
		{"/v1/tailored", http.MethodGet, s.handleTailored},
		{"/v1/sample", http.MethodGet, s.handleSample},
		{"/v1/metrics", http.MethodGet, s.handleMetrics},
	} {
		h := requireMethod(rt.method, rt.h)
		mux.HandleFunc(rt.path, s.instrument(rt.path, h))
		legacy := strings.TrimPrefix(rt.path, "/v1")
		mux.HandleFunc(legacy, s.instrument(legacy, goneAlias(rt.path)))
	}
	// POST /v1/compare is new with the workbench API — it never had an
	// unversioned form, so it gets no legacy tombstone.
	mux.HandleFunc("/v1/compare", s.instrument("/v1/compare",
		requireMethod(http.MethodPost, s.handleCompare)))
	// The tenant tree dispatches methods inside the handlers (not via
	// "METHOD /path" patterns) so wrong-method requests get the typed
	// 405 envelope with an Allow header instead of the stdlib page.
	for _, rt := range []struct {
		pattern string
		method  string // "" = handler dispatches internally
		h       http.HandlerFunc
	}{
		{"/v1/tenants", "", s.handleTenants},
		{"/v1/tenants/{id}", "", s.handleTenantByID},
		{"/v1/tenants/{id}/release", http.MethodGet, s.handleRelease},
		{"/v1/tenants/{id}/epoch", http.MethodPost, s.handleEpoch},
		{"/v1/tenants/{id}/sample", http.MethodGet, s.handleSample},
		{"/v1/tenants/{id}/accounting", http.MethodGet, s.handleTenantAccounting},
		{"/v1/tenants/{id}/tailored", http.MethodGet, s.handleTenantTailored},
	} {
		h := rt.h
		if rt.method != "" {
			h = requireMethod(rt.method, h)
		}
		mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, h))
	}
	// Unknown /v1 routes get the typed envelope, not the stdlib 404
	// page, so clients can rely on the error shape across the surface.
	mux.HandleFunc("/v1/", s.instrument("/v1/*", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, http.StatusNotFound, "not_found", "unknown route %s", r.URL.Path)
	}))
	mux.HandleFunc("/", s.instrument("/", s.handleRoot))
	mux.HandleFunc("/healthz", s.instrument("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReadyz))
	return mux
}

// requireMethod rejects other methods with the typed 405 envelope.
func requireMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				"%s requires %s", r.URL.Path, method)
			return
		}
		h(w, r)
	}
}

// goneAlias is the tombstone for a retired legacy unversioned path:
// 410 with the typed envelope, plus a Link header naming the /v1
// successor so a stale client's failure message says exactly where to
// go. (These paths spent a deprecation cycle serving real responses
// with a Deprecation header before being retired.)
func goneAlias(successor string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		writeAPIError(w, http.StatusGone, "gone",
			"%s was retired; use %s", r.URL.Path, successor)
	}
}

// statusWriter records the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route counters and structured
// access logging (key=value pairs, one line per request).
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	st := &routeStat{}
	s.routes[route] = st
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		elapsed := time.Since(begin)
		st.count.Add(1)
		st.nanos.Add(uint64(elapsed.Nanoseconds()))
		if sw.status >= 400 {
			st.errors.Add(1)
		}
		if s.logRequests {
			log.Printf("access method=%s path=%s status=%d dur_us=%d remote=%s",
				r.Method, r.URL.Path, sw.status, elapsed.Microseconds(), r.RemoteAddr)
		}
	}
}

// --- handlers -------------------------------------------------------------

func (s *server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeAPIError(w, http.StatusNotFound, "not_found", "unknown route %s", r.URL.Path)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"service": "minimaxdp multi-level count release (Algorithm 1)",
		"query":   fmt.Sprintf("adults in %s with flu", s.city),
		"levels":  s.survey.Levels(),
		"epoch":   s.survey.Epoch().Epoch,
		"endpoints": map[string]string{
			"GET /v1/result?level=K":                 "released result at privacy level K (1 = least private)",
			"GET /v1/levels":                         "privacy levels and their α values",
			"POST /v1/epoch":                         "advance to a fresh correlated draw",
			"GET /v1/mechanism?level=K":              "exact marginal mechanism G_{n,α_K} (public knowledge)",
			"GET /v1/tailored?loss=L&side=lo-hi&n=N": "engine-cached tailored optimum: the consumer's optimal interaction with G_{n,α} (minimax, or model=bayesian)",
			"POST /v1/compare":                       "optimality-gap scorecard: baseline mechanisms vs the consumer's tailored optimum (JSON spec body)",
			"GET /v1/sample?level=K&input=i&count=M": "fresh draws of the public mechanism at a claimed input",
			"GET /v1/metrics":                        "serving, engine-cache, artifact-store, and tenant counters",
			"GET|POST /v1/tenants":                   "list / register tenants (own n, α-ladder, loss, budget)",
			"GET|DELETE /v1/tenants/{id}":            "describe / retire one tenant",
			"GET /v1/tenants/{id}/release?level=K":   "tenant's current-epoch released value at level K",
			"POST /v1/tenants/{id}/epoch":            "advance the tenant's cascade (spends α₁ of its budget)",
			"GET /v1/tenants/{id}/sample":            "draws of the tenant's public level mechanism",
			"GET /v1/tenants/{id}/accounting":        "tenant's exact cumulative privacy spend",
			"GET /v1/tenants/{id}/tailored?level=K":  "tailored solve for the tenant's configured consumer",
			"GET /healthz":                           "liveness probe",
			"GET /readyz":                            "readiness probe (503 while draining)",
		},
	})
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *server) handleLevels(w http.ResponseWriter, _ *http.Request) {
	type level struct {
		Level int    `json:"level"`
		Alpha string `json:"alpha"`
	}
	alphas := s.survey.Ladder().Strings()
	out := make([]level, len(alphas))
	for i, a := range alphas {
		out[i] = level{Level: i + 1, Alpha: a}
	}
	writeJSON(w, http.StatusOK, out)
}

// parseLevel reads a 1-based ladder level from its wire string
// (empty = level 1) against a ladder of the given length. Every route
// that takes ?level=K (or a "level" body field) parses it here.
func parseLevel(s string, levels int) (int, error) {
	if s == "" {
		return 1, nil
	}
	lvl, err := strconv.Atoi(s)
	if err != nil || lvl < 1 {
		return 0, fmt.Errorf("level must be a positive integer")
	}
	if lvl > levels {
		return 0, fmt.Errorf("level %d out of range 1..%d", lvl, levels)
	}
	return lvl, nil
}

// principal resolves the release principal a request addresses: the
// tenant named by the {id} path segment, or the survey on the routes
// without one. An unknown id gets the 404 envelope and ok = false.
func (s *server) principal(w http.ResponseWriter, r *http.Request) (t *tenant.Tenant, id string, ok bool) {
	id = r.PathValue("id")
	if id == "" {
		return s.survey, "", true
	}
	if t, ok = s.registry.Get(id); !ok {
		writeAPIError(w, http.StatusNotFound, "not_found", "no tenant %q", id)
	}
	return t, id, ok
}

// handleRelease serves the principal's current-epoch released value
// at ?level=K: GET /v1/result for the survey and GET
// /v1/tenants/{id}/release, whose body adds a "tenant" field.
func (s *server) handleRelease(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.principal(w, r)
	if !ok {
		return
	}
	lvl, err := parseLevel(r.URL.Query().Get("level"), t.Levels())
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	e := t.Epoch()
	body := map[string]interface{}{
		"epoch":  e.Epoch,
		"level":  lvl,
		"alpha":  t.Ladder().AlphaString(lvl),
		"result": e.Results[lvl-1],
	}
	if id != "" {
		body["tenant"] = id
	}
	writeJSON(w, http.StatusOK, body)
}

// handleEpoch advances the principal to a fresh correlated draw:
// POST /v1/epoch for the survey and POST /v1/tenants/{id}/epoch,
// whose body adds the tenant id and its accounting. A tenant's draw
// spends α₁ of its budget (Lemma 4 + sequential composition); past
// the budget it is refused with 403.
func (s *server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.principal(w, r)
	if !ok {
		return
	}
	e, err := s.nextEpoch(r.Context(), t)
	if err != nil {
		writePrincipalError(w, err, http.StatusInternalServerError)
		return
	}
	body := map[string]interface{}{"epoch": e.Epoch}
	if id != "" {
		body["tenant"] = id
		body["accounting"] = accountingBody(t)
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMechanism serves the exact marginal mechanism of a level as
// JSON, so consumers can solve their optimal post-processing locally
// (the mechanism matrix is public knowledge; only the database is
// secret).
func (s *server) handleMechanism(w http.ResponseWriter, r *http.Request) {
	lvl, err := parseLevel(r.URL.Query().Get("level"), s.survey.Levels())
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	plan, err := s.planOf(r.Context(), s.survey)
	if err != nil {
		writePrincipalError(w, err, http.StatusInternalServerError)
		return
	}
	m, err := plan.Marginal(lvl)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// solveContext derives the context for one LP-backed request's wait:
// the request context (canceled when the client disconnects) bounded
// by the server's solve timeout, if configured. It bounds the wait,
// not the solve, which the engine runs to completion.
func (s *server) solveContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.solveTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.solveTimeout)
}

// resolveAlpha picks the privacy level for an LP-backed request: an
// explicit rational alpha wins, otherwise the survey's ladder level
// (default 1). Both arrive as wire strings so the GET query and POST
// body surfaces share the exact validation. An explicit alpha must
// lie in (0,1), as ladder levels do (release.CheckAlpha): outside it
// G_{n,α} is undefined, so the engine's tailored class refuses the
// key (Theorem 1 does not apply) and every baseline builder fails.
// Rejecting it here makes that a 400 before the engine is asked.
func (s *server) resolveAlpha(alphaStr, levelStr string) (*big.Rat, error) {
	if alphaStr != "" {
		a, err := parseWireRat(alphaStr)
		if err == nil {
			err = release.CheckAlpha(a)
		}
		if err != nil {
			return nil, fmt.Errorf("bad alpha: %w", err)
		}
		return a, nil
	}
	lvl, err := parseLevel(levelStr, s.survey.Levels())
	if err != nil {
		return nil, err
	}
	return s.survey.Alpha(lvl)
}

// handleTailored answers "what is the optimal α-DP mechanism for this
// consumer?" via the engine-cached tailored artifact: the consumer's
// optimal interaction with G_{n,α}, which Theorem 1 (for the default
// minimax model) and Ghosh–Roughgarden–Sundararajan (for
// model=bayesian) make optimal among all α-DP mechanisms. The
// optimality is the theorems', not recomputed per request; the
// response's mechanism is G·T°, exact and α-DP. The consumer arrives through the shared
// consumerSpec codec — the same one POST /v1/compare reads from its
// body — and the solve is keyed by (n, α, consumer identity), so
// repeat queries are cache lookups and concurrent identical
// first-time queries coalesce into one solve. The request context
// bounds the wait: a client disconnect answers 503 and the server's
// solve timeout 504, while the solve runs on and is cached for the
// retry; the engine's in-flight bound sheds excess load (429).
func (s *server) handleTailored(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := s.survey.N()
	if n > s.maxTailoredN {
		n = s.maxTailoredN
	}
	if nStr := q.Get("n"); nStr != "" {
		var err error
		n, err = strconv.Atoi(nStr)
		if err != nil || n < 1 {
			writeAPIError(w, http.StatusBadRequest, "invalid_argument", "n must be a positive integer")
			return
		}
		if n > s.maxTailoredN {
			writeAPIError(w, http.StatusBadRequest, "invalid_argument",
				"n %d exceeds the LP cap %d", n, s.maxTailoredN)
			return
		}
	}
	model, lf, err := consumerSpecFromQuery(q).build(n)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	alpha, err := s.resolveAlpha(q.Get("alpha"), q.Get("level"))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	ctx, cancel := s.solveContext(r)
	defer cancel()
	tl, err := s.eng.TailoredCtx(ctx, model, n, alpha)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	resp := map[string]interface{}{
		"n":     n,
		"alpha": alpha.RatString(),
		"model": model.ModelName(),
		"loss":  lf.Name(),
	}
	// Field name says what the number is: worst-case loss over the
	// side set for minimax, prior-weighted expectation for Bayesian.
	if model.ModelName() == "bayesian" {
		resp["expected_loss"] = tl.Loss.RatString()
	} else {
		resp["minimax_loss"] = tl.Loss.RatString()
	}
	if sideStr := q.Get("side"); sideStr != "" {
		resp["side"] = sideStr
	}
	if q.Get("mech") == "1" {
		resp["mechanism"] = tl.Mechanism
	}
	writeJSON(w, http.StatusOK, resp)
}

// jsonContentType is the canonical Content-Type value, shared so the
// hot path can assign it without allocating (see handleSample).
var jsonContentType = []string{"application/json"}

// Pooled buffers for the sampling hot path: one draw buffer sized to
// the batch cap, one append-built JSON response buffer. Both reach
// steady-state capacity after the first few requests, after which
// handleSample allocates nothing of its own.
var (
	drawBufPool = sync.Pool{New: func() any {
		b := make([]int, maxSampleCount)
		return &b
	}}
	jsonBufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	}}
)

// parseSampleQuery extracts level/input/count from the request and
// validates them against a principal's geometry (ladder length,
// domain bound n), without materializing url.Values (which allocates
// a map plus one slice per key). The raw query of a well-formed
// sample request contains no escapes, so the fast path is a plain
// byte scan; '%' or '+' falls back to the stdlib parser for
// correctness on exotic but legal encodings.
func parseSampleQuery(r *http.Request, levels, n int) (lvl, input, count int, err error) {
	var lvlS, inS, cntS string
	if raw := r.URL.RawQuery; !strings.ContainsAny(raw, "%+") {
		for len(raw) > 0 {
			var pair string
			if i := strings.IndexByte(raw, '&'); i >= 0 {
				pair, raw = raw[:i], raw[i+1:]
			} else {
				pair, raw = raw, ""
			}
			k, v, _ := strings.Cut(pair, "=")
			switch k {
			case "level":
				lvlS = v
			case "input":
				inS = v
			case "count":
				cntS = v
			}
		}
	} else {
		q := r.URL.Query()
		lvlS, inS, cntS = q.Get("level"), q.Get("input"), q.Get("count")
	}
	if lvl, err = parseLevel(lvlS, levels); err != nil {
		return 0, 0, 0, err
	}
	input, count = 0, 1
	if inS != "" {
		input, err = strconv.Atoi(inS)
		if err != nil || input < 0 || input > n {
			return 0, 0, 0, fmt.Errorf("input must lie in [0,%d]", n)
		}
	}
	if cntS != "" {
		count, err = strconv.Atoi(cntS)
		if err != nil || count < 1 || count > maxSampleCount {
			return 0, 0, 0, fmt.Errorf("count must lie in [1,%d]", maxSampleCount)
		}
	}
	return lvl, input, count, nil
}

// handleSample draws from the principal's *public* level mechanism at
// a caller-claimed input: GET /v1/sample for the survey and GET
// /v1/tenants/{id}/sample, whose body leads with a "tenant" field.
// This never touches the secret query result — fresh draws of the
// truth would let readers average the noise away, which is exactly
// what the epoch snapshot exists to prevent.
//
// This is the server's hot path and is engineered allocation-free at
// steady state for the survey and for a tenant whose plan is cached:
// query parsing scans the raw query, levelSampler is one plan lookup
// and a view of the level's marginal, draws land in a pooled buffer
// via Sampler.SampleInto (one PRNG block, one counter update for the
// whole batch), and the response is append-built JSON on a pooled
// buffer — no encoding/json reflection anywhere. The hotpath
// annotations here and on levelSampler make dpvet hold that line
// against the compiler's escape analysis.
//
//dpvet:hotpath
func (s *server) handleSample(w http.ResponseWriter, r *http.Request) {
	t, id, ok := s.principal(w, r)
	if !ok {
		return
	}
	lvl, input, count, err := parseSampleQuery(r, t.Levels(), t.N())
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	sm, alpha, err := s.levelSampler(r, t, lvl)
	if err != nil {
		writePrincipalError(w, err, http.StatusInternalServerError)
		return
	}
	dbp := drawBufPool.Get().(*[]int)
	draws := (*dbp)[:count]
	sm.SampleInto(input, draws)

	jbp := jsonBufPool.Get().(*[]byte)
	b := append((*jbp)[:0], '{')
	// Tenant ids ([a-z0-9-_]) and α strings (big.Rat.RatString of a
	// validated level: digits and '/') embed in JSON without escaping.
	if id != "" {
		b = append(b, `"tenant":"`...)
		b = append(b, id...)
		b = append(b, `",`...)
	}
	b = append(b, `"level":`...)
	b = strconv.AppendInt(b, int64(lvl), 10)
	b = append(b, `,"alpha":"`...)
	b = append(b, alpha...)
	b = append(b, `","input":`...)
	b = strconv.AppendInt(b, int64(input), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"draws":[`...)
	for k, d := range draws {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, "]}\n"...)
	drawBufPool.Put(dbp)

	// Direct map assignment of a shared value slice instead of
	// Header().Set, which allocates a fresh one-element slice per call.
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(b); err != nil {
		log.Printf("dpserver: sample write: %v", err)
	}
	*jbp = b
	jsonBufPool.Put(jbp)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	type routeSnapshot struct {
		Count      uint64 `json:"count"`
		Errors     uint64 `json:"errors"`
		TotalNanos uint64 `json:"total_nanos"`
	}
	routes := make(map[string]routeSnapshot, len(s.routes))
	for route, st := range s.routes {
		routes[route] = routeSnapshot{
			Count:      st.count.Load(),
			Errors:     st.errors.Load(),
			TotalNanos: st.nanos.Load(),
		}
	}
	body := map[string]interface{}{
		"server": map[string]interface{}{
			"epoch":          s.survey.Epoch().Epoch,
			"levels":         s.survey.Levels(),
			"n":              s.survey.N(),
			"uptime_seconds": time.Since(s.start).Seconds(),
			"ready":          s.ready.Load(),
			"routes":         routes,
		},
		"engine":  s.eng.Metrics(),
		"tenants": map[string]interface{}{"count": s.registry.Len()},
	}
	if s.store != nil {
		body["store"] = s.store.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}
