package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	hot := func(seed int64, heldOut bool) []op {
		hs := hotWarm(seed, heldOut)
		next := hotStream(seed, heldOut, 0, hs)
		ops := append([]op{}, hs.tenants...)
		for i := 0; i < 500; i++ {
			ops = append(ops, next())
		}
		return ops
	}
	for name, gen := range map[string]func(int64, bool) []op{
		"hot-reads":   hot,
		"cold-solves": coldPass,
	} {
		a, b := gen(7, false), gen(7, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if reflect.DeepEqual(a, gen(8, false)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
		if reflect.DeepEqual(a, gen(7, true)) {
			t.Errorf("%s: held-out seed 7 reproduced the inputs of --seed 7", name)
		}
	}
}

func TestColdPassIsTheSameSetForEverySeed(t *testing.T) {
	keys := func(seed int64) []string {
		var out []string
		for _, o := range coldPass(seed, false) {
			out = append(out, o.key())
		}
		sort.Strings(out)
		return out
	}
	a := keys(1)
	if !reflect.DeepEqual(a, keys(2)) {
		t.Fatal("cold passes of seeds 1 and 2 hold different request sets")
	}
	for i := 1; i < len(a); i++ {
		if a[i] == a[i-1] {
			t.Fatalf("cold pass repeats key %s, so a request would hit a cache", a[i])
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.90, false},
		{100, 0.90, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		v, ok := percentile(xs(tc.n), tc.q)
		if ok != tc.ok {
			t.Errorf("p%g of %d samples: reported=%v, want %v", tc.q*100, tc.n, ok, tc.ok)
		}
		beyond := 0
		for _, x := range xs(tc.n) {
			if x > v {
				beyond++
			}
		}
		if ok && beyond < minBeyond {
			t.Errorf("p%g of %d samples reported with only %d beyond", tc.q*100, tc.n, beyond)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with
// what the code reports.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNamesAndBenchmarkFileAgree(t *testing.T) {
	bf := readBenchmark(t)
	e2e := metrics{}
	oc := newOutcome()
	oc.tailQ = 0.5
	oc.setups = []time.Duration{time.Second}
	oc.rss = []float64{1}
	w := window{done: 30, secs: 1, cpu: time.Millisecond}
	for i := 0; i < 30; i++ {
		w.lats = append(w.lats, 1)
	}
	oc.windows = []window{w}
	if err := endToEnd(oc, e2e); err != nil {
		t.Fatal(err)
	}
	layer := metrics{}
	counters{}.report(layer)
	(&traceResult{families: map[string]*familyStats{}}).report(layer)
	if err := micro(layer); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name   string
		got    metrics
		listed []struct{ Name, Unit string }
	}{{"end_to_end", e2e, bf.EndToEnd}, {"per_layer", layer, bf.PerLayer}} {
		listed := map[string]string{}
		for _, m := range set.listed {
			listed[m.Name] = m.Unit
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s metric %q has a character outside [A-Za-z0-9_.-]", set.name, m.Name)
			}
		}
		for name, m := range set.got {
			if !metricName.MatchString(name) {
				t.Errorf("reported metric %q has a character outside [A-Za-z0-9_.-]", name)
			}
			if u, ok := listed[name]; !ok {
				t.Errorf("%s metric %q is reported but not in BENCHMARK.json", set.name, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", set.name, name, m.Unit, u)
			}
		}
		for name := range listed {
			if _, ok := set.got[name]; !ok {
				t.Errorf("%s metric %q is in BENCHMARK.json but never reported", set.name, name)
			}
		}
	}
	for _, w := range bf.Workloads {
		if !workloads[w.Name] {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Layer: "engine", Start: 0, End: 100},
		{Layer: "lp", Start: 10, End: 60},
		{Layer: "store", Start: 70, End: 90},
		{Layer: "lp", Start: 20, End: 30}, // nested in the first lp span
	}
	link(spans, 0)
	self := selfTimes(spans)
	want := map[string]time.Duration{"engine": 30, "lp": 50, "store": 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestKeptBodiesAreCheckedAfterwards(t *testing.T) {
	good := []byte(`{"count":1,"draws":[3]}`)
	bad := []byte(`{"count":1,"draws":[65]}`)
	big := make([]byte, keptBlock+1) // gets a block of its own
	chk := newChecker()
	var k keptBodies
	for i := 0; i < 3*keptBlock/len(good); i++ {
		k.keep(op{kind: opSample, count: 1}, 200, good)
	}
	k.keep(op{kind: opSample, count: 1}, 200, big)
	k.keep(op{kind: opSample, count: 1}, 200, bad)
	k.keep(op{kind: opSample, count: 1}, 200, good)
	if len(k.blocks) < 4 {
		t.Fatalf("%d blocks for more than 4 MiB of bodies", len(k.blocks))
	}
	if chk.failed() != 0 {
		t.Fatal("keeping a body checked it")
	}
	k.checkAll(chk)
	if chk.failed() != 2 {
		t.Errorf("%d failed checks, want 2 (the oversized and the out-of-range body)", chk.failed())
	}
}
