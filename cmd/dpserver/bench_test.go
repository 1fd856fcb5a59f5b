// HTTP-handler benchmarks for the sampling hot path, on the survey and
// on a tenant route; part of the BENCH_sample.json suite. These exercise handleSample directly —
// raw-query parsing, pooled draw buffer, append-built JSON — against
// a discarding ResponseWriter, so the number isolates the handler
// (the piece this repo controls) from kernel socket costs.
package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// raceEnabled reports a -race build (set by race_test.go).
var raceEnabled bool

// discardWriter is a minimal ResponseWriter: headers are retained (the
// handler sets Content-Type), the body is dropped. Unlike
// httptest.ResponseRecorder it does not grow a body buffer, which
// would dominate the allocation profile being measured.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

func newBenchServer(b *testing.B) *server {
	b.Helper()
	s, err := newServer(serverConfig{N: 200, City: "San Diego", FluRate: 0.1, Levels: "1/2,2/3", Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// registerSampleTenant registers the tenant the tenant sample rows
// and the allocation guard draw from: n=64 (the tenant cap) on the
// ladder 1/2, 2/3, 4/5.
func registerSampleTenant(tb testing.TB, s *server) {
	tb.Helper()
	truth := 10
	sp := tenantSpec{ID: "bench", N: 64, Truth: &truth, Levels: []string{"1/2", "2/3", "4/5"}, Seed: 7}
	if _, err := s.registerTenant(context.Background(), &sp); err != nil {
		tb.Fatal(err)
	}
}

// sampleRequest builds a /v1/sample request; a non-empty id addresses
// that tenant's route, as the mux would.
func sampleRequest(id, query string) *http.Request {
	path := "/v1/sample"
	if id != "" {
		path = "/v1/tenants/" + id + "/sample"
	}
	req := httptest.NewRequest(http.MethodGet, path+"?"+query, nil)
	req.SetPathValue("id", id)
	return req
}

func benchHandleSample(b *testing.B, s *server, req *http.Request) {
	w := &discardWriter{h: make(http.Header)}
	s.handleSample(w, req) // warm the buffer pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleSample(w, req)
	}
}

// BenchmarkHandleSample times the survey route (N=200) and a
// registered n=64 tenant's route: both reach their draws through
// levelSampler.
func BenchmarkHandleSample(b *testing.B) {
	s := newBenchServer(b)
	registerSampleTenant(b, s)
	for _, row := range []struct{ name, id, query string }{
		{"count=1", "", "level=1&input=60"},
		{"count=1024", "", "level=1&input=60&count=1024"},
		{"tenant/count=1", "bench", "level=1&input=30"},
		{"tenant/count=16", "bench", "level=1&input=30&count=16"},
	} {
		b.Run(row.name, func(b *testing.B) {
			benchHandleSample(b, s, sampleRequest(row.id, row.query))
		})
	}
}

// TestHandleSampleZeroAlloc is the go-test form of the hot path's
// allocation contract: once its pools are warm, /v1/sample allocates
// nothing on the survey route and on a tenant route whose plan is
// cached.
func TestHandleSampleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector, so the pooled buffers allocate; the non-race run pins the contract")
	}
	s := newTestServer(t)
	registerSampleTenant(t, s)
	w := &discardWriter{h: make(http.Header)}
	for _, tc := range []struct{ id, query string }{
		{"", "level=2&input=5&count=16"},
		{"bench", "level=3&input=30&count=16"},
	} {
		req := sampleRequest(tc.id, tc.query)
		s.handleSample(w, req) // warm the pools and the row's table
		if avg := testing.AllocsPerRun(100, func() { s.handleSample(w, req) }); avg != 0 {
			t.Errorf("%s: handleSample allocates %.1f objects per call, want 0", req.URL.Path, avg)
		}
	}
}
