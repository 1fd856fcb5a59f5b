// Tests for the /v1 API contract: the typed error envelope, status
// code mapping, retired legacy aliases (410), readiness, and the
// cancellation/load-shedding behavior of the LP-backed routes.

package main

import (
	"context"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
)

// decodeEnvelope asserts the response carries the uniform error
// envelope and returns its code.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", rec.Body.String())
	}
	return env.Error.Code
}

// TestV1ErrorEnvelopes drives every /v1 error path and asserts both
// the HTTP status and the machine-readable code.
func TestV1ErrorEnvelopes(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	cases := []struct {
		method string
		path   string
		status int
		code   string
	}{
		{http.MethodGet, "/v1/result?level=0", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/result?level=99", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/result?level=x", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/mechanism?level=0", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/tailored?loss=nope&n=4", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/tailored?n=0", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/tailored?n=9999", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/tailored?alpha=zzz&n=4", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/tailored?side=9-2&n=4", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/tailored?loss=deadband&width=x&n=4", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/sample?count=0", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/sample?input=-1", http.StatusBadRequest, "invalid_argument"},
		{http.MethodGet, "/v1/nonexistent", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/epoch", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/v1/result", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if code := decodeEnvelope(t, rec); code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, code, tc.code)
		}
	}
}

// TestAlphaOutsideOpenUnit: an explicit alpha must lie in (0,1), as
// ladder levels do, and is rejected before any solve. Before the
// check, /v1/tailored at alpha=1, n=32 took 7 s in the §2.5 LP, and a
// compare at alpha=1 solved the tailored LP before its geometric
// baseline failed.
func TestAlphaOutsideOpenUnit(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	cases := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/tailored?loss=absolute&n=4&alpha=0", ""},
		{http.MethodGet, "/v1/tailored?loss=absolute&n=4&alpha=1", ""},
		{http.MethodGet, "/v1/tailored?loss=absolute&n=4&alpha=3/2", ""},
		{http.MethodPost, "/v1/compare", `{"n":4,"alpha":"1","consumer":{}}`},
		{http.MethodPost, "/v1/compare", `{"n":4,"alpha":"0","consumer":{}}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400 (%s)", tc.method, tc.path, tc.body, rec.Code, rec.Body.String())
			continue
		}
		if code := decodeEnvelope(t, rec); code != "invalid_argument" {
			t.Errorf("%s %s %s: code %q, want invalid_argument", tc.method, tc.path, tc.body, code)
		}
	}
	m := s.eng.Metrics()
	if m.LP.Solves != 0 || m.Tailored.Requests != 0 || m.Compares.Requests != 0 {
		t.Errorf("rejected alphas reached the engine: %d LP solves, %d tailored and %d compare requests",
			m.LP.Solves, m.Tailored.Requests, m.Compares.Requests)
	}
}

// TestWireRationalsBounded: exponent forms and rationals over
// maxWireRatLen bytes are a 400 on every route that reads a rational,
// before any G or LP is built. Before the bound, a tailored solve at
// alpha=1e-999 took seconds and a tenant with level 1e-99999 took
// about a minute to register.
func TestWireRationalsBounded(t *testing.T) {
	// A small survey: the rejections under test never reach its levels.
	s, err := newServer(serverConfig{N: 8, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.handler()
	long := "1/" + strings.Repeat("7", maxWireRatLen)
	cases := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/tailored?alpha=1e-9999&n=4", ""},
		{http.MethodGet, "/v1/tailored?alpha=" + long + "&n=4", ""},
		{http.MethodGet, "/v1/tailored?model=bayesian&n=1&prior=1e-99999,1", ""},
		{http.MethodPost, "/v1/compare", `{"n":3,"alpha":"1e-9999","consumer":{}}`},
		{http.MethodPost, "/v1/compare", `{"n":3,"alpha":"` + long + `","consumer":{}}`},
		{http.MethodPost, "/v1/compare", `{"n":1,"consumer":{"model":"bayesian","prior":["1e-99999","1"]}}`},
		{http.MethodPost, "/v1/tenants", `{"id":"bomb","n":8,"truth":3,"levels":["1e-99999","1/2"]}`},
		{http.MethodPost, "/v1/tenants", `{"id":"bomb","n":8,"truth":3,"levels":["1/4","` + long + `"]}`},
		{http.MethodPost, "/v1/tenants", `{"id":"bomb","n":8,"truth":3,"levels":["1/4","1/2"],"min_alpha":"1e-99999"}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		mux.ServeHTTP(rec, req)
		// A rejection is a string scan; a second leaves room for a
		// loaded race-enabled run and still fails the seconds-long
		// expansion the bound exists to stop.
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s %s: took %v", tc.method, tc.path, took)
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400 (%s)", tc.method, tc.path, tc.body, rec.Code, rec.Body.String())
			continue
		}
		if code := decodeEnvelope(t, rec); code != "invalid_argument" {
			t.Errorf("%s %s %s: code %q", tc.method, tc.path, tc.body, code)
		}
	}
}

// TestV1RoutesServe sanity-checks that every /v1 success path works
// and that the versioned responses carry no deprecation marker.
func TestV1RoutesServe(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	for _, path := range []string{
		"/v1/result?level=1",
		"/v1/levels",
		"/v1/mechanism?level=1",
		"/v1/tailored?loss=absolute&n=6&level=1",
		"/v1/sample?level=1&input=3&count=4",
		"/v1/metrics",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		if dep := rec.Header().Get("Deprecation"); dep != "" {
			t.Errorf("%s: unexpected Deprecation header %q on versioned route", path, dep)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/epoch", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("POST /v1/epoch: status %d", rec.Code)
	}
}

// TestLegacyAliasesGone: the retired unversioned paths answer 410
// with the typed envelope and a Link header naming the /v1 successor
// — a stale client's failure message says exactly where to migrate.
func TestLegacyAliasesGone(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	for legacy, successor := range map[string]string{
		"/result?level=1": "/v1/result",
		"/levels":         "/v1/levels",
		"/epoch":          "/v1/epoch",
		"/mechanism":      "/v1/mechanism",
		"/tailored":       "/v1/tailored",
		"/sample":         "/v1/sample",
		"/metrics":        "/v1/metrics",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, legacy, nil))
		if rec.Code != http.StatusGone {
			t.Errorf("%s: status %d, want 410", legacy, rec.Code)
			continue
		}
		if code := decodeEnvelope(t, rec); code != "gone" {
			t.Errorf("%s: code %q, want gone", legacy, code)
		}
		if link := rec.Header().Get("Link"); !strings.Contains(link, successor) ||
			!strings.Contains(link, "successor-version") {
			t.Errorf("%s: Link header = %q, want successor %s", legacy, link, successor)
		}
	}
}

// TestTailoredClientDisconnect: a request whose context is already
// canceled (the client hung up) gets 503/canceled, not a solve.
func TestTailoredClientDisconnect(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/tailored?loss=absolute&n=8&level=1", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if code := decodeEnvelope(t, rec); code != "canceled" {
		t.Errorf("code %q, want canceled", code)
	}
	if size := s.eng.Metrics().Tailored.Cache.Size; size != 0 {
		t.Errorf("canceled request cached an artifact: size = %d", size)
	}
}

// TestTailoredSolveTimeout: a server-side solve timeout that expires
// maps to 504/deadline_exceeded.
func TestTailoredSolveTimeout(t *testing.T) {
	s, err := newServer(serverConfig{
		N: testN, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3", Seed: 42,
		SolveTimeout: time.Nanosecond, // expires before the solve can start
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.handler()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tailored?loss=absolute&n=8&level=1", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if code := decodeEnvelope(t, rec); code != "deadline_exceeded" {
		t.Errorf("code %q, want deadline_exceeded", code)
	}
}

// solveHold is an engine trace hook that parks the first solve of
// one artifact class at solve-start, holding its solve slot, until
// the test calls free.
type solveHold struct {
	artifact string
	started  chan struct{}
	release  chan struct{}
	first    sync.Once
	freed    sync.Once
}

// newHeldServer builds a test server whose first engine solve of
// artifact is held. The hold is freed at cleanup before the engine
// closes, so a failing test cannot leave Close waiting on it.
func newHeldServer(t *testing.T, artifact string, cfg serverConfig) (*server, *solveHold) {
	t.Helper()
	h := &solveHold{artifact: artifact, started: make(chan struct{}), release: make(chan struct{})}
	cfg.Trace = h.hook
	s := newTestServerWith(t, cfg)
	t.Cleanup(h.free)
	return s, h
}

func (h *solveHold) hook(ev engine.TraceEvent) {
	if ev.Kind != engine.TraceSolveStart || ev.Artifact != h.artifact {
		return
	}
	first := false
	h.first.Do(func() { first = true; close(h.started) })
	if first {
		<-h.release
	}
}

func (h *solveHold) free() { h.freed.Do(func() { close(h.release) }) }

// TestTailoredTimeoutKeepsSolveForRetry: a solve that outlives
// -solve-timeout answers 504, yet runs on and is cached, so the retry
// is served from it: 200 with one tailored miss and one LP solve.
func TestTailoredTimeoutKeepsSolveForRetry(t *testing.T) {
	s, hold := newHeldServer(t, "tailored", serverConfig{SolveTimeout: 20 * time.Millisecond})
	mux := s.handler()
	const path = "/v1/tailored?loss=absolute&n=8&level=1"

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("first request: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	<-hold.started
	hold.free()
	for deadline := time.Now().Add(10 * time.Second); s.eng.Metrics().Tailored.Cache.Size != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the timed-out solve never finished")
		}
		time.Sleep(time.Millisecond)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("retry: status %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	m := s.eng.Metrics()
	if m.Tailored.Cache.Misses != 1 || m.LP.Solves != 1 {
		t.Errorf("tailored misses %d, LP solves %d; want 1 and 1", m.Tailored.Cache.Misses, m.LP.Solves)
	}
}

// TestTailoredShedsUnderLoad: with the single solve slot held by a
// running solve, a /v1/tailored request for a different key and a
// tenant registration that needs a plan build are rejected fast with
// 429/shed, and the shed shows up in /v1/metrics.
func TestTailoredShedsUnderLoad(t *testing.T) {
	s, hold := newHeldServer(t, "tailored", serverConfig{MaxInFlightSolves: 1})
	mux := s.handler()

	occDone := make(chan error, 1)
	go func() {
		_, err := s.eng.TailoredCtx(context.Background(), &consumer.Consumer{Loss: loss.Absolute{}}, 6, big.NewRat(1, 2))
		occDone <- err
	}()
	<-hold.started
	defer func() {
		hold.free()
		if err := <-occDone; err != nil {
			t.Errorf("occupying solve: %v", err)
		}
	}()

	begin := time.Now()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tailored?loss=squared&n=6&level=2", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if code := decodeEnvelope(t, rec); code != "shed" {
		t.Errorf("code %q, want shed", code)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("shed response took %v, want fast-fail", elapsed)
	}

	// A registration's plan build takes a solve slot too: it is shed
	// with the same envelope, and nothing is registered.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants",
		strings.NewReader(`{"id":"busy","n":5,"truth":1,"levels":["1/5","2/5"]}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("registration while saturated: status %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if code := decodeEnvelope(t, rec); code != "shed" {
		t.Errorf("registration while saturated: code %q, want shed", code)
	}
	if s.registry.Len() != 0 {
		t.Errorf("shed registration left %d tenants registered", s.registry.Len())
	}

	// The shed is visible through /v1/metrics.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var body struct {
		Engine struct {
			Tailored struct {
				Shed uint64 `json:"shed"`
			} `json:"tailored"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Engine.Tailored.Shed != 1 {
		t.Errorf("metrics shed = %d, want 1", body.Engine.Tailored.Shed)
	}
}

// TestReadyzDrains: ready until the drain flag flips, 503 after.
func TestReadyzDrains(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("readyz while serving: %d %q", rec.Code, rec.Body.String())
	}
	s.ready.Store(false)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != "draining\n" {
		t.Errorf("readyz while draining: %d %q", rec.Code, rec.Body.String())
	}
}

// TestV1MetricsIncludesInFlight: the engine section exposes the
// in-flight solve gauge and per-artifact latency histograms.
func TestV1MetricsIncludesInFlight(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	// One real solve so the tailored histogram is non-empty.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tailored?loss=absolute&n=6&level=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("tailored warmup: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var body struct {
		Engine struct {
			InFlightSolves *int `json:"in_flight_solves"`
			Tailored       struct {
				ComputeLatency struct {
					Counts []uint64 `json:"counts"`
				} `json:"compute_latency"`
			} `json:"tailored"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Engine.InFlightSolves == nil {
		t.Error("metrics missing in_flight_solves gauge")
	}
	var total uint64
	for _, c := range body.Engine.Tailored.ComputeLatency.Counts {
		total += c
	}
	if total != 1 {
		t.Errorf("tailored latency histogram total = %d, want 1", total)
	}
}
