// Tests for the multi-tenant surface: lifecycle, per-tenant release /
// epoch / sample / accounting / tailored, the budget refusal path,
// warm-boot against the artifact store, and concurrent multi-tenant
// isolation under the race detector.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
)

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, mux http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var out map[string]interface{}
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec, out
}

func mustRegister(t *testing.T, mux http.Handler, spec string) {
	t.Helper()
	rec, _ := postJSON(t, mux, "/v1/tenants", spec)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestTenantLifecycle(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()

	// Empty registry lists empty.
	_, body := get(t, mux, "/v1/tenants")
	if n := len(body["tenants"].([]interface{})); n != 0 {
		t.Fatalf("fresh server has %d tenants", n)
	}

	rec, body := postJSON(t, mux, "/v1/tenants",
		`{"id":"acme","n":12,"truth":5,"levels":["1/4","1/2"],"loss":"squared","seed":7}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d: %s", rec.Code, rec.Body.String())
	}
	if body["id"] != "acme" || body["epoch"].(float64) != 1 || body["loss"] != "squared" {
		t.Errorf("summary = %v", body)
	}
	if _, hasTruth := body["truth"]; hasTruth {
		t.Error("tenant summary leaked the truth")
	}

	// Duplicate id conflicts.
	rec, _ = postJSON(t, mux, "/v1/tenants", `{"id":"acme","n":12,"truth":5,"levels":["1/4","1/2"]}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("duplicate register: %d, want 409", rec.Code)
	}

	// Invalid specs are 400 with the envelope.
	for _, bad := range []string{
		`{`,
		`{"id":"x","n":12,"levels":["1/2"]}`, // no truth
		`{"id":"x","n":12,"truth":5}`,        // no levels
		`{"id":"x","n":12,"truth":5,"levels":["3/2"]}`,  // level outside (0,1)
		`{"id":"X!","n":12,"truth":5,"levels":["1/2"]}`, // bad id
		`{"id":"x","n":0,"truth":0,"levels":["1/2"]}`,   // bad n
		`{"id":"x","n":12,"truth":44,"levels":["1/2"]}`, // truth outside domain
		`{"id":"x","n":12,"truth":5,"levels":["1/2"],"loss":"nope"}`,
		`{"id":"x","n":12,"truth":5,"levels":["1/2"],"min_alpha":"zzz"}`,
		`{"id":"x","n":12,"truth":5,"levels":["1/2"],"bogus_field":1}`,
		`{"id":"x","n":12,"truth":5,"levels":["1/2"],"side":"3-2000000000"}`, // side beyond n
	} {
		rec, _ := postJSON(t, mux, "/v1/tenants", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", bad, rec.Code)
		}
	}

	// Describe includes accounting.
	_, body = get(t, mux, "/v1/tenants/acme")
	acc := body["accounting"].(map[string]interface{})
	if acc["epochs"].(float64) != 1 || acc["spent_alpha"] != "1/4" {
		t.Errorf("accounting = %v", acc)
	}

	// Unknown tenant is 404 everywhere on the tree.
	for _, path := range []string{
		"/v1/tenants/ghost", "/v1/tenants/ghost/release", "/v1/tenants/ghost/accounting",
	} {
		rec, _ := get(t, mux, path)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, rec.Code)
		}
	}

	// Delete, then the id is gone and re-registrable.
	req := httptest.NewRequest(http.MethodDelete, "/v1/tenants/acme", nil)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/tenants/acme", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("second delete: %d, want 404", rec.Code)
	}
	mustRegister(t, mux, `{"id":"acme","n":4,"truth":1,"levels":["1/2"]}`)
}

func TestTenantMethodDispatch(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	mustRegister(t, mux, `{"id":"t1","n":8,"truth":2,"levels":["1/2"]}`)
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodPut, "/v1/tenants", "GET, POST"},
		{http.MethodPost, "/v1/tenants/t1", "GET, DELETE"},
		{http.MethodPost, "/v1/tenants/t1/release", http.MethodGet},
		{http.MethodGet, "/v1/tenants/t1/epoch", http.MethodPost},
		{http.MethodDelete, "/v1/tenants/t1/accounting", http.MethodGet},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
			continue
		}
		if allow := rec.Header().Get("Allow"); allow != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "method_not_allowed" {
			t.Errorf("%s %s: not the typed 405 envelope: %s", tc.method, tc.path, rec.Body.String())
		}
	}
}

func TestTenantReleaseEpochBudget(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	// Floor 1/8 with α₁ = 1/2: exactly three epoch draws fit
	// (registration itself is the first).
	mustRegister(t, mux,
		`{"id":"metered","n":10,"truth":4,"levels":["1/2","2/3"],"min_alpha":"1/8","seed":3}`)

	// Release at both levels; results in the tenant's domain; stable
	// within an epoch.
	for lvl := 1; lvl <= 2; lvl++ {
		rec, body := get(t, mux, fmt.Sprintf("/v1/tenants/metered/release?level=%d", lvl))
		if rec.Code != http.StatusOK {
			t.Fatalf("release level %d: %d: %s", lvl, rec.Code, rec.Body.String())
		}
		res := int(body["result"].(float64))
		if res < 0 || res > 10 {
			t.Errorf("level %d result %d outside [0,10]", lvl, res)
		}
		_, again := get(t, mux, fmt.Sprintf("/v1/tenants/metered/release?level=%d", lvl))
		if again["result"] != body["result"] || again["epoch"].(float64) != 1 {
			t.Errorf("level %d result changed within the epoch", lvl)
		}
	}
	rec, _ := get(t, mux, "/v1/tenants/metered/release?level=3")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range level: %d, want 400", rec.Code)
	}

	// Two more draws fit; each response reports the updated spend.
	for i, wantSpent := range []string{"1/4", "1/8"} {
		rec, body := postJSON(t, mux, "/v1/tenants/metered/epoch", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("epoch draw %d: %d: %s", i+2, rec.Code, rec.Body.String())
		}
		acc := body["accounting"].(map[string]interface{})
		if acc["spent_alpha"] != wantSpent {
			t.Errorf("draw %d spent = %v, want %s", i+2, acc["spent_alpha"], wantSpent)
		}
	}
	// The budget now refuses.
	rec, _ = postJSON(t, mux, "/v1/tenants/metered/epoch", "")
	if rec.Code != http.StatusForbidden {
		t.Fatalf("over-budget epoch: %d, want 403 (%s)", rec.Code, rec.Body.String())
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "budget_exhausted" {
		t.Errorf("over-budget code = %v %q", err, env.Error.Code)
	}
	// Accounting is unchanged by the refusal and flags the stop.
	_, body := get(t, mux, "/v1/tenants/metered/accounting")
	if body["spent_alpha"] != "1/8" || body["budget_alpha"] != "1/8" ||
		body["epochs"].(float64) != 3 || body["next_draw_allowed"] != false {
		t.Errorf("post-refusal accounting = %v", body)
	}
	// Released epochs keep serving.
	rec, _ = get(t, mux, "/v1/tenants/metered/release")
	if rec.Code != http.StatusOK {
		t.Errorf("release after budget stop: %d", rec.Code)
	}
}

func TestTenantSampleEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	mustRegister(t, mux, `{"id":"sampler","n":6,"truth":3,"levels":["1/3","1/2"],"seed":9}`)
	rec, body := get(t, mux, "/v1/tenants/sampler/sample?level=2&input=3&count=40")
	if rec.Code != http.StatusOK {
		t.Fatalf("sample: %d: %s", rec.Code, rec.Body.String())
	}
	if body["alpha"] != "1/2" {
		t.Errorf("alpha = %v", body["alpha"])
	}
	draws := body["draws"].([]interface{})
	if len(draws) != 40 {
		t.Fatalf("draws = %d", len(draws))
	}
	for _, d := range draws {
		if v := int(d.(float64)); v < 0 || v > 6 {
			t.Errorf("draw %d outside the tenant's domain [0,6]", v)
		}
	}
	for _, q := range []string{
		"/v1/tenants/sampler/sample?input=7",
		"/v1/tenants/sampler/sample?input=-1",
		"/v1/tenants/sampler/sample?count=0",
		fmt.Sprintf("/v1/tenants/sampler/sample?count=%d", maxSampleCount+1),
		"/v1/tenants/sampler/sample?level=3",
	} {
		rec, _ := get(t, mux, q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rec.Code)
		}
	}
}

func TestTenantTailoredEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	mustRegister(t, mux,
		`{"id":"squared","n":6,"truth":2,"levels":["1/3"],"loss":"squared","side":"1-4"}`)
	rec, body := get(t, mux, "/v1/tenants/squared/tailored?level=1&mech=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("tailored: %d: %s", rec.Code, rec.Body.String())
	}
	want, err := consumer.OptimalMechanism(
		&consumer.Consumer{Loss: loss.Squared{}, Side: consumer.Interval(1, 4)},
		6, rational.MustParse("1/3"))
	if err != nil {
		t.Fatal(err)
	}
	if body["minimax_loss"] != want.Loss.RatString() {
		t.Errorf("minimax_loss = %v, want %s (tenant loss/side not honored)",
			body["minimax_loss"], want.Loss.RatString())
	}
	if body["mechanism"] == nil {
		t.Error("mech=1 did not include the mechanism")
	}

	// A tenant beyond the LP cap is refused cleanly.
	mustRegister(t, mux, `{"id":"big","n":40,"truth":20,"levels":["1/2"]}`)
	rec, _ = get(t, mux, "/v1/tenants/big/tailored")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized tailored: %d, want 400", rec.Code)
	}
}

// TestServerWarmBootZeroSolves is the serving-layer half of the
// warm-boot acceptance criterion: boot a server with a store dir and
// a tenant config, drive LP-backed routes, restart against the same
// directory, re-drive, and assert the second process reports
// "solves": 0 in its engine metrics.
func TestServerWarmBootZeroSolves(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(cfgPath, []byte(
		`{"tenants":[{"id":"acme","n":10,"truth":4,"levels":["1/3","1/2"],"loss":"squared","seed":5}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{
		N: 60, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3", Seed: 42,
		StoreDir: filepath.Join(dir, "store"), TenantsConfig: cfgPath,
	}
	drive := func(s *server) {
		mux := s.handler()
		for _, path := range []string{
			"/v1/tailored?loss=absolute&n=8&level=1",
			"/v1/tenants/acme/tailored?level=2",
			"/v1/tenants/acme/release?level=1",
			"/v1/tenants/acme/sample?level=1&input=4&count=8",
		} {
			rec, _ := get(t, mux, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d: %s", path, rec.Code, rec.Body.String())
			}
		}
	}

	s1, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(s1)
	if m := s1.eng.Metrics(); m.LP.Solves == 0 {
		t.Fatal("cold server did no LP solves — premise broken")
	}
	s1.eng.Close() // a graceful stop: the store writes land behind the responses

	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(s2)
	m := s2.eng.Metrics()
	if m.LP.Solves != 0 {
		t.Errorf("warm-booted server did %d LP solves, want 0", m.LP.Solves)
	}
	if hits := m.Tailored.StoreHits; hits == 0 {
		t.Error("warm boot never hit the tailored store")
	}
	// And the JSON surface really renders "solves":0 — the exact string
	// the ops smoke test (scripts/check.sh) greps for.
	rec, _ := get(t, s2.handler(), "/v1/metrics")
	if !strings.Contains(rec.Body.String(), `"solves":0`) {
		t.Error(`/v1/metrics does not contain "solves":0 after warm boot`)
	}
}

// TestTenantIsolationConcurrentHTTP is the isolation acceptance test:
// three tenants with different domains and ladders served
// concurrently (run under -race in CI), each request fetching the
// tenant's plan from the shared engine cache. Afterwards each
// tenant's accounting must equal its own α₁^epochs exactly and every
// observed draw must lie in its own domain — any cross-tenant leakage
// of plans, samplers, PRNGs, or accounting shows up in one of those
// two invariants.
func TestTenantIsolationConcurrentHTTP(t *testing.T) {
	s, err := newServer(serverConfig{
		N: 60, City: "San Diego", FluRate: 0.1, Levels: "1/2", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.handler()
	tenants := []struct {
		id     string
		n      int
		alpha1 string
		spec   string
	}{
		{"small", 4, "1/3", `{"id":"small","n":4,"truth":2,"levels":["1/3","1/2"],"seed":1}`},
		{"wide", 30, "1/5", `{"id":"wide","n":30,"truth":11,"levels":["1/5","2/5","3/5"],"seed":2}`},
		{"single", 9, "2/5", `{"id":"single","n":9,"truth":7,"levels":["2/5"],"seed":3}`},
	}
	for _, tn := range tenants {
		mustRegister(t, mux, tn.spec)
	}

	const epochsPerTenant = 12
	const readsPerTenant = 60
	var wg sync.WaitGroup
	for _, tn := range tenants {
		tn := tn
		wg.Add(2)
		go func() { // writer: epoch advances
			defer wg.Done()
			for i := 0; i < epochsPerTenant; i++ {
				rec, _ := postJSON(t, mux, "/v1/tenants/"+tn.id+"/epoch", "")
				if rec.Code != http.StatusOK {
					t.Errorf("%s epoch: %d: %s", tn.id, rec.Code, rec.Body.String())
					return
				}
			}
		}()
		go func() { // reader: releases and samples stay in-domain
			defer wg.Done()
			for i := 0; i < readsPerTenant; i++ {
				rec, body := get(t, mux, "/v1/tenants/"+tn.id+"/release")
				if rec.Code != http.StatusOK {
					t.Errorf("%s release: %d", tn.id, rec.Code)
					return
				}
				if res := int(body["result"].(float64)); res < 0 || res > tn.n {
					t.Errorf("%s: release %d outside [0,%d]", tn.id, res, tn.n)
				}
				rec, body = get(t, mux, "/v1/tenants/"+tn.id+"/sample?count=4")
				if rec.Code != http.StatusOK {
					t.Errorf("%s sample: %d", tn.id, rec.Code)
					return
				}
				for _, d := range body["draws"].([]interface{}) {
					if v := int(d.(float64)); v < 0 || v > tn.n {
						t.Errorf("%s: draw %d outside [0,%d] (cross-tenant sampler?)", tn.id, v, tn.n)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Exact per-tenant accounting: registration + epochsPerTenant
	// advances, each spending that tenant's own α₁.
	for _, tn := range tenants {
		_, body := get(t, mux, "/v1/tenants/"+tn.id+"/accounting")
		if got := body["epochs"].(float64); got != epochsPerTenant+1 {
			t.Errorf("%s: epochs = %v, want %d", tn.id, got, epochsPerTenant+1)
		}
		a1 := rational.MustParse(tn.alpha1)
		want := new(big.Rat).SetInt64(1)
		for i := 0; i < epochsPerTenant+1; i++ {
			want.Mul(want, a1)
		}
		if body["spent_alpha"] != want.RatString() {
			t.Errorf("%s: spent = %v, want %s (accounting cross-contamination?)",
				tn.id, body["spent_alpha"], want.RatString())
		}
	}
}

// TestTenantRegistrationUnpublishedUntilFirstEpoch blocks a
// registration inside its plan build — the engine's plans
// solve-start trace event for the new tenant's key — and probes the
// server meanwhile. The tenant must not be visible yet (404 on its
// release, absent from the list), and another tenant's /sample and
// /epoch must answer: the build holds no lock they need.
func TestTenantRegistrationUnpublishedUntilFirstEpoch(t *testing.T) {
	const lateKey = "n=5|a=1/5,2/5" // the engine's plan key of "late"
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	s, err := newServer(serverConfig{
		N: testN, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3", Seed: 42,
		Trace: func(ev engine.TraceEvent) {
			if ev.Artifact == "plans" && ev.Kind == engine.TraceSolveStart && ev.Key == lateKey {
				once.Do(func() { close(entered) })
				<-unblock
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.handler()
	mustRegister(t, mux, `{"id":"ready","n":4,"truth":2,"levels":["1/3","1/2"],"seed":1}`)

	// serve runs one request in the background; the channel yields
	// its recorder once it completes.
	serve := func(method, path, body string) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			done <- rec
		}()
		return done
	}
	// await fails the test, instead of hanging it, when a request is
	// stuck behind the blocked build.
	await := func(what string, done <-chan *httptest.ResponseRecorder) *httptest.ResponseRecorder {
		t.Helper()
		select {
		case rec := <-done:
			return rec
		case <-time.After(5 * time.Second):
			t.Errorf("%s did not answer while a registration was building its plan", what)
			return nil
		}
	}

	registered := serve(http.MethodPost, "/v1/tenants",
		`{"id":"late","n":5,"truth":1,"levels":["1/5","2/5"],"seed":2}`)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		close(unblock)
		t.Fatal("the registration never started its plan build")
	}
	func() {
		defer close(unblock)
		if rec := await("GET /v1/tenants/late/release", serve(http.MethodGet, "/v1/tenants/late/release", "")); rec != nil && rec.Code != http.StatusNotFound {
			t.Errorf("release of a tenant still registering: %d, want 404 (%s)", rec.Code, rec.Body.String())
		}
		if rec := await("GET /v1/tenants", serve(http.MethodGet, "/v1/tenants", "")); rec != nil && strings.Contains(rec.Body.String(), `"late"`) {
			t.Errorf("tenant listed before its first epoch: %s", rec.Body.String())
		}
		if rec := await("GET /v1/tenants/ready/sample", serve(http.MethodGet, "/v1/tenants/ready/sample?count=4", "")); rec != nil && rec.Code != http.StatusOK {
			t.Errorf("other tenant's sample: %d (%s)", rec.Code, rec.Body.String())
		}
		if rec := await("POST /v1/tenants/ready/epoch", serve(http.MethodPost, "/v1/tenants/ready/epoch", "")); rec != nil && rec.Code != http.StatusOK {
			t.Errorf("other tenant's epoch: %d (%s)", rec.Code, rec.Body.String())
		}
	}()

	// Unblocked, the registration completes and publishes epoch 1.
	rec := <-registered
	if rec.Code != http.StatusCreated {
		t.Fatalf("registration: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec, body := get(t, mux, "/v1/tenants/late/release"); rec.Code != http.StatusOK || body["epoch"].(float64) != 1 {
		t.Errorf("release after registration: %d %v", rec.Code, body)
	}
}

// TestTenantRegistrationRetryAfterHangupBuildsOnce: a client that
// hangs up while its registration's plan build runs does not throw
// the build away. The build finishes and is cached, the abandoned
// registration is not published, and the client's retry, sent while
// the build is still blocked, registers the tenant on that one build.
// A duplicate id is then refused before the plans cache is asked.
func TestTenantRegistrationRetryAfterHangupBuildsOnce(t *testing.T) {
	const key = "n=6|a=1/5,2/5" // the engine's plan key of the spec
	const spec = `{"id":"retry","n":6,"truth":2,"levels":["1/5","2/5"],"seed":3}`
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var builds atomic.Int32
	s, err := newServer(serverConfig{
		N: testN, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3", Seed: 42,
		Trace: func(ev engine.TraceEvent) {
			if ev.Artifact == "plans" && ev.Kind == engine.TraceSolveStart && ev.Key == key {
				if builds.Add(1) == 1 {
					close(entered)
					<-unblock
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.handler()
	register := func(ctx context.Context) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(spec))
			mux.ServeHTTP(rec, req.WithContext(ctx))
			done <- rec
		}()
		return done
	}

	hungUpCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	first := register(hungUpCtx)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		close(unblock)
		t.Fatal("the registration never started its plan build")
	}
	plansBefore := s.eng.Metrics().Plans.Requests
	hangUp()
	// Give the hung-up request time to abandon the build, were it
	// able to, before the retry arrives.
	var firstRec *httptest.ResponseRecorder
	select {
	case firstRec = <-first:
	case <-time.After(100 * time.Millisecond):
	}
	retry := register(context.Background())
	// Release the build only once the retry has asked the plans cache
	// for the key, so the retry arrives while the build still runs.
	for deadline := time.Now().Add(10 * time.Second); s.eng.Metrics().Plans.Requests == plansBefore; {
		if time.Now().After(deadline) {
			close(unblock)
			t.Fatal("the retry never reached the plans cache")
		}
		time.Sleep(time.Millisecond)
	}
	close(unblock)

	if rec := <-retry; rec.Code != http.StatusCreated {
		t.Fatalf("retry: status %d, want 201 (%s)", rec.Code, rec.Body.String())
	}
	if firstRec == nil {
		firstRec = <-first
	}
	if firstRec.Code != http.StatusServiceUnavailable {
		t.Errorf("hung-up registration: status %d, want 503 (%s)", firstRec.Code, firstRec.Body.String())
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("the plan was built %d times, want 1", n)
	}
	if rec, body := get(t, mux, "/v1/tenants/retry/release"); rec.Code != http.StatusOK || body["epoch"].(float64) != 1 {
		t.Errorf("release after the retry: %d %v", rec.Code, body)
	}

	plansBefore = s.eng.Metrics().Plans.Requests
	if rec, _ := postJSON(t, mux, "/v1/tenants", spec); rec.Code != http.StatusConflict {
		t.Errorf("duplicate id: status %d, want 409 (%s)", rec.Code, rec.Body.String())
	}
	if got := s.eng.Metrics().Plans.Requests; got != plansBefore {
		t.Errorf("a duplicate id made %d plan requests, want 0", got-plansBefore)
	}
}

// TestTenantsConfigRejectsUnknownFields: the config file is decoded
// like a POST body, so a misspelled field fails startup instead of
// registering a tenant without the setting it meant to carry — here
// an unmetered tenant instead of one with a budget floor.
func TestTenantsConfigRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(
		`{"tenants":[{"id":"acme","n":8,"truth":3,"levels":["1/2"],"min_alpa":"1/4"}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := newServer(serverConfig{
		N: testN, City: "San Diego", FluRate: 0.1, Levels: "1/2", Seed: 1, TenantsConfig: path,
	})
	if err == nil || !strings.Contains(err.Error(), "min_alpa") {
		t.Errorf("config with an unknown field: err = %v, want an error naming min_alpa", err)
	}
}

// TestTenantGeometryCaps: a spec over the n or ladder-length cap is a
// 400 before any plan is built, on both registration surfaces.
func TestTenantGeometryCaps(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	levels := make([]string, maxTenantLevels+1)
	for i := range levels {
		levels[i] = fmt.Sprintf(`"%d/%d"`, i+1, maxTenantLevels+2)
	}
	plansBefore := s.eng.Metrics().Plans.Requests
	for _, spec := range []string{
		fmt.Sprintf(`{"id":"wide","n":%d,"truth":1,"levels":["1/2"]}`, maxTenantN+1),
		fmt.Sprintf(`{"id":"tall","n":4,"truth":1,"levels":[%s]}`, strings.Join(levels, ",")),
	} {
		rec, _ := postJSON(t, mux, "/v1/tenants", spec)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", spec, rec.Code, rec.Body.String())
			continue
		}
		if code := decodeEnvelope(t, rec); code != "invalid_argument" {
			t.Errorf("%s: code %q", spec, code)
		}
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, []byte(`{"tenants":[`+spec+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.loadTenantsConfig(path); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("config %s: err = %v, want the cap error", spec, err)
		}
	}
	if got := s.eng.Metrics().Plans.Requests; got != plansBefore {
		t.Errorf("over-cap specs made %d plan requests, want 0", got-plansBefore)
	}
}
