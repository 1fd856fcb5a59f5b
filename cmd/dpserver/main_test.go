package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
)

// testN is the survey population of the test servers: small, so a
// server builds in milliseconds even under the race detector.
const testN = 24

func newTestServer(t *testing.T) *server {
	t.Helper()
	return newTestServerWith(t, serverConfig{})
}

// newTestServerWith builds a server from cfg on the test survey (N,
// city, flu rate, levels and seed filled in) and closes its engine
// when the test ends.
func newTestServerWith(t testing.TB, cfg serverConfig) *server {
	t.Helper()
	cfg.N, cfg.City, cfg.FluRate, cfg.Levels, cfg.Seed = testN, "San Diego", 0.1, "1/2,2/3", 42
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.eng.Close)
	return s
}

func get(t *testing.T, mux http.Handler, path string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var body map[string]interface{}
	if rec.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestNewServerValidation(t *testing.T) {
	if _, err := newServer(serverConfig{N: 100, City: "X", FluRate: 0.1, Levels: "zzz", Seed: 1}); err == nil {
		t.Error("bad levels accepted")
	}
	if _, err := newServer(serverConfig{N: 100, City: "X", FluRate: 0.1, Levels: "1/2,1/4", Seed: 1}); err == nil {
		t.Error("decreasing levels accepted")
	}
}

func TestParseLevels(t *testing.T) {
	alphas, err := parseLevels("1/2, 2/3 ,4/5")
	if err != nil {
		t.Fatal(err)
	}
	if len(alphas) != 3 || alphas[2].RatString() != "4/5" {
		t.Errorf("alphas = %v", alphas)
	}
	long := "1/" + strings.Repeat("9", maxWireRatLen)
	for _, bad := range []string{"", ",", "1/2,", "0,1/2", "1,1/2", "1/2,1/2", "2/3,1/2", "-1/2", "3/2", "1e-99999,1/2", long} {
		if _, err := parseLevels(bad); err == nil {
			t.Errorf("parseLevels(%q) accepted", bad)
		}
	}
}

func TestParseLossAndSide(t *testing.T) {
	for name, want := range map[string]string{
		"": "absolute", "absolute": "absolute", "squared": "squared",
		"zero-one": "zero-one", "deadband": "deadband(1)",
	} {
		_, lf, err := (consumerSpec{Loss: name}).build(8)
		if err != nil {
			t.Fatalf("build(loss=%q): %v", name, err)
		}
		if lf.Name() != want {
			t.Errorf("build(loss=%q).Name() = %q, want %q", name, lf.Name(), want)
		}
	}
	if _, lf, err := (consumerSpec{Loss: "deadband", Width: "3"}).build(8); err != nil || lf.Name() != "deadband(3)" {
		t.Errorf("deadband width 3: %v %v", lf, err)
	}
	if _, _, err := (consumerSpec{Loss: "deadband", Width: "-1"}).build(8); err == nil {
		t.Error("negative width accepted")
	}
	if _, _, err := (consumerSpec{Loss: "nope"}).build(8); err == nil {
		t.Error("unknown loss accepted")
	}
	// A width on a width-less family is refused, not silently dropped —
	// the registry owns that rule for every surface.
	if _, _, err := (consumerSpec{Loss: "absolute", Width: "2"}).build(8); err == nil {
		t.Error("width on absolute accepted")
	}
	side, err := parseSide("3-6", 8)
	if err != nil || len(side) != 4 || side[0] != 3 {
		t.Errorf("parseSide(3-6) = %v, %v", side, err)
	}
	if s, err := parseSide("", 8); err != nil || s != nil {
		t.Errorf("empty side = %v, %v", s, err)
	}
	// Points above n are built only up to the first one (n+1), so a
	// huge hi costs nothing; a lo above n stays a single point.
	for s, want := range map[string][]int{
		"7-2000000000":    {7, 8, 9},
		"50-2000000000":   {50},
		"9-9":             {9},
		"0-9223372036854": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	} {
		if got, err := parseSide(s, 8); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("parseSide(%q, 8) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"6-3", "x-3", "3-x", "-1-3", "3"} {
		if _, err := parseSide(bad, 8); err == nil {
			t.Errorf("parseSide(%q) accepted", bad)
		}
	}
}

func TestRootAndLevels(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	rec, body := get(t, mux, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("root status %d", rec.Code)
	}
	if body["levels"].(float64) != 2 {
		t.Errorf("levels = %v", body["levels"])
	}
	rec, _ = get(t, mux, "/nope")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/levels", nil)
	lrec := httptest.NewRecorder()
	mux.ServeHTTP(lrec, req)
	var levels []map[string]interface{}
	if err := json.Unmarshal(lrec.Body.Bytes(), &levels); err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || levels[0]["alpha"] != "1/2" || levels[1]["alpha"] != "2/3" {
		t.Errorf("levels = %v", levels)
	}
}

func TestResultEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	rec, body := get(t, mux, "/v1/result?level=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["alpha"] != "1/2" {
		t.Errorf("alpha = %v", body["alpha"])
	}
	result := int(body["result"].(float64))
	if result < 0 || result > testN {
		t.Errorf("result %d outside [0,%d]", result, testN)
	}
	// Default level is 1.
	_, body = get(t, mux, "/v1/result")
	if body["level"].(float64) != 1 {
		t.Errorf("default level = %v", body["level"])
	}
	// Same epoch → same result (correlated release is cached per epoch).
	_, body2 := get(t, mux, "/v1/result?level=1")
	if body2["result"] != body["result"] {
		t.Error("result changed within an epoch")
	}
	// Bad levels.
	rec, _ = get(t, mux, "/v1/result?level=0")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("level=0 status %d", rec.Code)
	}
	rec, _ = get(t, mux, "/v1/result?level=99")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("level=99 status %d", rec.Code)
	}
	rec, _ = get(t, mux, "/v1/result?level=x")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("level=x status %d", rec.Code)
	}
}

func TestEpochEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	_, before := get(t, mux, "/v1/result?level=1")
	req := httptest.NewRequest(http.MethodPost, "/v1/epoch", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("epoch status %d", rec.Code)
	}
	var body map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["epoch"] != 2 {
		t.Errorf("epoch = %d, want 2", body["epoch"])
	}
	_, after := get(t, mux, "/v1/result?level=1")
	if after["epoch"].(float64) != 2 {
		t.Errorf("result epoch = %v", after["epoch"])
	}
	_ = before // values may coincide by chance; epoch must advance

	// GET /epoch is rejected.
	gRec, _ := get(t, mux, "/v1/epoch")
	if gRec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /epoch status %d", gRec.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestMechanismEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/mechanism?level=1", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		N    int        `json:"n"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.N != testN || len(body.Rows) != testN+1 {
		t.Errorf("mechanism shape n=%d rows=%d", body.N, len(body.Rows))
	}
	// Bad levels rejected.
	for _, q := range []string{"/v1/mechanism?level=0", "/v1/mechanism?level=99", "/v1/mechanism?level=x"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status %d", q, rec.Code)
		}
	}
}

func TestTailoredEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	rec, body := get(t, mux, "/v1/tailored?loss=absolute&n=8&level=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// The served optimum must equal the direct §2.5 solve.
	want, err := consumer.OptimalMechanism(
		&consumer.Consumer{Loss: loss.Absolute{}}, 8, rational.MustParse("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	if body["minimax_loss"] != want.Loss.RatString() {
		t.Errorf("minimax_loss = %v, want %s", body["minimax_loss"], want.Loss.RatString())
	}
	// Repeat request is a cache hit.
	if _, body = get(t, mux, "/v1/tailored?loss=absolute&n=8&level=1"); body["minimax_loss"] != want.Loss.RatString() {
		t.Errorf("cached minimax_loss = %v", body["minimax_loss"])
	}
	if hits := s.eng.Metrics().Tailored.Cache.Hits; hits < 1 {
		t.Errorf("tailored cache hits = %d, want ≥1", hits)
	}
	// Side information and explicit alpha.
	rec, body = get(t, mux, "/v1/tailored?loss=squared&n=6&alpha=1/3&side=2-5")
	if rec.Code != http.StatusOK || body["side"] != "2-5" || body["alpha"] != "1/3" {
		t.Errorf("tailored with side: %d %v", rec.Code, body)
	}
	// A side reaching past n is clipped to {0..n}, without building the
	// points beyond it.
	rec, body = get(t, mux, "/v1/tailored?loss=squared&n=6&alpha=1/3&side=2-2000000000")
	if rec.Code != http.StatusOK || body["side"] != "2-2000000000" {
		t.Errorf("tailored with a side past n: %d %v", rec.Code, body)
	}
	// mech=1 includes the mechanism matrix.
	_, body = get(t, mux, "/v1/tailored?loss=absolute&n=4&level=1&mech=1")
	if body["mechanism"] == nil {
		t.Error("mech=1 did not include the mechanism")
	}
	// Rejections: bad loss, oversized n, bad alpha, bad side.
	for _, q := range []string{
		"/v1/tailored?loss=nope&n=4",
		"/v1/tailored?n=9999",
		"/v1/tailored?n=0",
		"/v1/tailored?alpha=zzz&n=4",
		"/v1/tailored?side=9-2&n=4",
		"/v1/tailored?loss=deadband&width=x&n=4",
	} {
		rec, _ := get(t, mux, q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", q, rec.Code)
		}
	}
}

func TestSampleEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	rec, body := get(t, mux, fmt.Sprintf("/v1/sample?level=1&input=%d&count=50", testN/2))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	draws := body["draws"].([]interface{})
	if len(draws) != 50 {
		t.Fatalf("draws = %d, want 50", len(draws))
	}
	for _, d := range draws {
		if v := int(d.(float64)); v < 0 || v > testN {
			t.Errorf("draw %d outside [0,%d]", v, testN)
		}
	}
	for _, q := range []string{
		"/v1/sample?input=-1", fmt.Sprintf("/v1/sample?input=%d", testN+1), "/v1/sample?count=0",
		fmt.Sprintf("/v1/sample?count=%d", maxSampleCount+1), "/v1/sample?level=0",
	} {
		rec, _ := get(t, mux, q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", q, rec.Code)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	_, _ = get(t, mux, "/v1/result?level=1")
	rec, body := get(t, mux, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	srv := body["server"].(map[string]interface{})
	if srv["epoch"].(float64) != 1 || srv["n"].(float64) != testN {
		t.Errorf("server metrics = %v", srv)
	}
	routes := srv["routes"].(map[string]interface{})
	res := routes["/v1/result"].(map[string]interface{})
	if res["count"].(float64) < 1 {
		t.Errorf("/v1/result count = %v", res["count"])
	}
	eng := body["engine"].(map[string]interface{})
	plans := eng["plans"].(map[string]interface{})
	if plans["requests"].(float64) < 1 {
		t.Errorf("engine plan requests = %v", plans["requests"])
	}
}

// TestConcurrentServing is the -race stress test: 32 goroutines mix
// reads (/result, /mechanism, /metrics, /sample), engine-cached LP
// solves (/tailored), and epoch advances (POST /epoch). It asserts
// the release invariant — within one epoch every (epoch, level) pair
// maps to exactly one result, because all levels of an epoch come
// from a single cascade draw published atomically — and that the
// engine's coalescer collapsed the duplicate concurrent tailored
// solves into a single LP run (miss counter = 1).
func TestConcurrentServing(t *testing.T) {
	s, err := newServer(serverConfig{N: 120, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3,4/5", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.handler()

	const workers = 32
	const perWorker = 40

	var mu sync.Mutex
	seen := make(map[[2]int]int) // (epoch, level) → result

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			for k := 0; k < perWorker; k++ {
				switch k % 8 {
				case 0, 1, 2, 3: // result reads dominate, cycling levels
					lvl := 1 + (w+k)%3
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
						fmt.Sprintf("/v1/result?level=%d", lvl), nil))
					if rec.Code != http.StatusOK {
						t.Errorf("/v1/result status %d", rec.Code)
						return
					}
					var body struct {
						Epoch  int `json:"epoch"`
						Level  int `json:"level"`
						Result int `json:"result"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
						t.Errorf("bad /result JSON: %v", err)
						return
					}
					key := [2]int{body.Epoch, body.Level}
					mu.Lock()
					if prev, ok := seen[key]; ok && prev != body.Result {
						t.Errorf("epoch %d level %d: saw results %d and %d (cascade draw torn)",
							body.Epoch, body.Level, prev, body.Result)
					}
					seen[key] = body.Result
					mu.Unlock()
				case 4: // identical tailored solve from every goroutine
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
						"/v1/tailored?loss=absolute&n=8&level=1", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("/v1/tailored status %d: %s", rec.Code, rec.Body.String())
						return
					}
				case 5: // pooled sampler draws
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
						"/v1/sample?level=2&input=60&count=8", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("/v1/sample status %d", rec.Code)
						return
					}
				case 6: // metrics reads race the counters
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("/v1/metrics status %d", rec.Code)
						return
					}
				case 7: // occasional epoch advance
					if w%4 == 0 {
						rec := httptest.NewRecorder()
						mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/epoch", nil))
						if rec.Code != http.StatusOK {
							t.Errorf("/v1/epoch status %d", rec.Code)
							return
						}
					}
				}
			}
		}(w)
	}
	start.Done()
	done.Wait()

	m := s.eng.Metrics()
	if m.Tailored.Cache.Misses != 1 {
		t.Errorf("tailored LP misses = %d, want 1 (coalescer must collapse %d concurrent identical solves)",
			m.Tailored.Cache.Misses, workers)
	}
	if m.Tailored.Requests != workers*perWorker/8 {
		t.Errorf("tailored requests = %d, want %d", m.Tailored.Requests, workers*perWorker/8)
	}
	if m.SamplerDraws == 0 {
		t.Error("no sampler draws recorded")
	}
	if len(seen) == 0 {
		t.Fatal("no results observed")
	}
}

// TestSurveyServesAfterPlanEviction: the survey's release plan lives
// in the engine's 64-entry plans LRU like a tenant's. Registering 64
// tenants with distinct ladders evicts it; the survey's next request
// rebuilds it (one plans miss), and /v1/sample, /v1/result and
// /v1/mechanism still answer 200 with the same mechanism bytes and
// the same epoch's result.
func TestSurveyServesAfterPlanEviction(t *testing.T) {
	s := newTestServer(t)
	mux := s.handler()
	before := map[string]string{}
	for _, q := range []string{"/v1/mechanism?level=1", "/v1/mechanism?level=2", "/v1/result?level=1"} {
		rec, _ := get(t, mux, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body.String())
		}
		before[q] = rec.Body.String()
	}
	for k := 2; k < 66; k++ {
		mustRegister(t, mux, fmt.Sprintf(`{"id":"t%d","n":4,"truth":1,"levels":["1/%d"],"seed":%d}`, k, k, k))
	}
	plans := s.eng.Metrics().Plans.Cache
	if plans.Evictions == 0 {
		t.Fatalf("64 tenant plans evicted nothing: %+v", plans)
	}
	rec, _ := get(t, mux, fmt.Sprintf("/v1/sample?level=1&input=%d&count=8", testN/2))
	if rec.Code != http.StatusOK {
		t.Fatalf("survey sample after eviction: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.eng.Metrics().Plans.Cache.Misses; got != plans.Misses+1 {
		t.Errorf("survey sample after eviction: plans misses %d → %d, want one rebuild", plans.Misses, got)
	}
	for q, want := range before {
		rec, _ := get(t, mux, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s after eviction: status %d: %s", q, rec.Code, rec.Body.String())
		}
		if got := rec.Body.String(); got != want {
			t.Errorf("%s after eviction:\n got %s\nwant %s", q, got, want)
		}
	}
}
