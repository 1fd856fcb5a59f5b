// Workload input generation. Every request a run sends is a pure
// function of (workload, seed): the same seed yields the same requests
// in the same order, and the server sees only these generated inputs.

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// opKind names one request type of the dpserver surface.
type opKind int

const (
	opSample opKind = iota
	opTailored
	opCompare
	opResult
	opTenantRelease
	opTenantSample
	opRegister
	opAccounting
)

var opNames = [...]string{
	opSample:        "sample",
	opTailored:      "tailored",
	opCompare:       "compare",
	opResult:        "result",
	opTenantRelease: "tenant_release",
	opTenantSample:  "tenant_sample",
	opRegister:      "tenant_register",
	opAccounting:    "tenant_accounting",
}

func (k opKind) String() string { return opNames[k] }

// serverN is the survey population size the benchmark starts dpserver
// with; /v1/sample draws lie in [0, serverN].
const serverN = 64

// serverLevels is dpserver's default α-ladder (three levels).
const serverLevels = 3

// consumerSpec mirrors dpserver's wire consumer spec.
type consumerSpec struct {
	Model string `json:"model,omitempty"`
	Loss  string `json:"loss,omitempty"`
	Width string `json:"width,omitempty"`
	Side  string `json:"side,omitempty"`
}

// tenantSpec mirrors the POST /v1/tenants body.
type tenantSpec struct {
	ID     string   `json:"id"`
	N      int      `json:"n"`
	Truth  int      `json:"truth"`
	Levels []string `json:"levels"`
	Loss   string   `json:"loss,omitempty"`
	Seed   int64    `json:"seed,omitempty"`
}

// op is one generated request. The structured fields drive both the
// HTTP request and the in-process replay of the traced run.
type op struct {
	kind   opKind
	n      int
	alpha  string
	cons   consumerSpec
	level  int
	input  int
	count  int
	tenant string
	spec   *tenantSpec
}

// key identifies the artifact an op asks for; equal keys must get
// byte-identical bodies.
func (o op) key() string {
	path, body := o.request()
	return path + "|" + string(body)
}

// request renders the op as an HTTP path (with query) and, for POST
// routes, a JSON body.
func (o op) request() (path string, body []byte) {
	switch o.kind {
	case opSample:
		return fmt.Sprintf("/v1/sample?level=%d&input=%d&count=%d", o.level, o.input, o.count), nil
	case opTailored:
		q := url.Values{}
		q.Set("n", strconv.Itoa(o.n))
		q.Set("alpha", o.alpha)
		q.Set("mech", "1")
		if o.cons.Loss != "" {
			q.Set("loss", o.cons.Loss)
		}
		if o.cons.Width != "" {
			q.Set("width", o.cons.Width)
		}
		if o.cons.Side != "" {
			q.Set("side", o.cons.Side)
		}
		return "/v1/tailored?" + q.Encode(), nil
	case opCompare:
		b, _ := json.Marshal(struct {
			N        int          `json:"n"`
			Alpha    string       `json:"alpha"`
			Consumer consumerSpec `json:"consumer"`
		}{o.n, o.alpha, o.cons})
		return "/v1/compare", b
	case opResult:
		return fmt.Sprintf("/v1/result?level=%d", o.level), nil
	case opTenantRelease:
		return fmt.Sprintf("/v1/tenants/%s/release?level=%d", o.tenant, o.level), nil
	case opTenantSample:
		return fmt.Sprintf("/v1/tenants/%s/sample?level=%d&input=%d&count=%d", o.tenant, o.level, o.input, o.count), nil
	case opRegister:
		b, _ := json.Marshal(o.spec)
		return "/v1/tenants", b
	case opAccounting:
		return "/v1/tenants/" + o.tenant + "/accounting", nil
	}
	panic("perfbench: unknown op kind")
}

// post reports whether the op is sent as a POST.
func (o op) post() bool {
	return o.kind == opCompare || o.kind == opRegister
}

// heldOutSalt separates the held-out seed space from the development
// one: no --seed value can reproduce the inputs of a --heldout-seed.
const heldOutSalt = 0x5eed_0f_7e57

// newRand returns the generator's PRNG for one stream of one workload.
func newRand(seed int64, heldOut bool, workload string, stream int64) *rand.Rand {
	s := seed*1_000_003 + stream
	for _, c := range workload {
		s = s*31 + int64(c)
	}
	if heldOut {
		s ^= heldOutSalt
	}
	return rand.New(rand.NewSource(s))
}

// lossSpec is one loss family of the consumer catalogue.
type lossSpec struct{ name, width string }

var catalogueLosses = []lossSpec{{"absolute", ""}, {"squared", ""}, {"zero-one", ""}, {"deadband", "1"}}

// lossFamily names a consumer's loss for per-family breakdowns.
func lossFamily(c consumerSpec) string {
	if c.Model == "bayesian" {
		return "bayesian_" + c.Loss
	}
	if c.Width != "" {
		return c.Loss + c.Width
	}
	return c.Loss
}

// sideKind names a consumer's side-information kind.
func sideKind(c consumerSpec) string {
	if c.Side == "" {
		return "full"
	}
	return "interval"
}

// catalogueConsumer is one minimax consumer of the catalogue on {0..n}.
// The interval side drops both endpoints of the domain.
func catalogueConsumer(l lossSpec, n int, interval bool) consumerSpec {
	c := consumerSpec{Loss: l.name, Width: l.width}
	if interval {
		c.Side = fmt.Sprintf("1-%d", n-1)
	}
	return c
}

// coldPass is one pass of the cold-solves workload: every point of the
// 48-consumer catalogue (n ∈ {6,8} × 4 losses × {full, interval side}
// × α ∈ {1/3,1/2,2/3}) exactly once — α=1/2 points as POST /v1/compare
// against the default baseline set, the others as /v1/tailored, so no
// request shares a tailored key with another — plus the n=16 share
// (absolute and squared, full side, α ∈ {1/2,1/3}) and Bayesian
// compares. The seed fixes the order; the set is the same for every
// seed, so runs with different seeds do the same work.
func coldPass(seed int64, heldOut bool) []op {
	var ops []op
	for _, n := range []int{6, 8} {
		for _, l := range catalogueLosses {
			for _, interval := range []bool{false, true} {
				c := catalogueConsumer(l, n, interval)
				for _, a := range []string{"1/3", "2/3"} {
					ops = append(ops, op{kind: opTailored, n: n, alpha: a, cons: c})
				}
				ops = append(ops, op{kind: opCompare, n: n, alpha: "1/2", cons: c})
			}
		}
		for _, l := range []string{"absolute", "squared"} {
			ops = append(ops, op{kind: opCompare, n: n, alpha: "1/2",
				cons: consumerSpec{Model: "bayesian", Loss: l}})
		}
	}
	for _, l := range []string{"absolute", "squared"} {
		for _, a := range []string{"1/2", "1/3"} {
			ops = append(ops, op{kind: opTailored, n: 16, alpha: a, cons: consumerSpec{Loss: l}})
		}
	}
	rng := newRand(seed, heldOut, "cold-solves", 0)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// ladders are the tenant α-ladders; each with every n gives a distinct
// release plan.
var ladders = [][]string{
	{"1/2", "2/3"},
	{"1/3", "1/2", "3/4"},
	{"2/5", "3/5"},
	{"1/4", "1/2"},
	{"1/2", "3/4", "9/10"},
	{"1/3", "2/3"},
}

// tenants generates count tenant registrations with ids prefix-000…,
// n = nLo + i mod nSpan and the ladder cycling every nSpan tenants, so
// up to nSpan·len(ladders) tenants have pairwise distinct plans.
func tenants(rng *rand.Rand, prefix string, count, nLo, nSpan int) []op {
	ops := make([]op, count)
	for i := range ops {
		n := nLo + i%nSpan
		losses := []string{"absolute", "squared", "zero-one"}
		sp := &tenantSpec{
			ID:     fmt.Sprintf("%s-%03d", prefix, i),
			N:      n,
			Truth:  rng.Intn(n + 1),
			Levels: ladders[(i/nSpan)%len(ladders)],
			Loss:   losses[rng.Intn(len(losses))],
			Seed:   rng.Int63n(1 << 40),
		}
		ops[i] = op{kind: opRegister, tenant: sp.ID, spec: sp}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// hotSet is the warm state of the hot-reads workload: the tailored and
// compare keys and the tenants every measured request reads.
type hotSet struct {
	tailored []op
	compares []op
	tenants  []op
}

// hotTenants is below dpserver's 64-entry runtime cache, so no tenant
// runtime is ever evicted in hot-reads.
const hotTenants = 32

func hotWarm(seed int64, heldOut bool) hotSet {
	rng := newRand(seed, heldOut, "hot-reads", 0)
	var hs hotSet
	// Hit-path consumers only (absolute and squared, full side), so
	// warm-up stays short.
	for _, n := range []int{4, 5, 6} {
		for _, l := range []string{"absolute", "squared"} {
			for _, a := range []string{"1/3", "2/3"} {
				hs.tailored = append(hs.tailored, op{kind: opTailored, n: n, alpha: a, cons: consumerSpec{Loss: l}})
			}
		}
	}
	for _, n := range []int{4, 5} {
		for _, l := range []string{"absolute", "squared"} {
			hs.compares = append(hs.compares, op{kind: opCompare, n: n, alpha: "1/3", cons: consumerSpec{Loss: l}})
		}
	}
	hs.tenants = tenants(rng, "hot", hotTenants, 8, 8)
	return hs
}

// hotStream returns the request generator of one hot-reads connection.
// The mix is per request: mostly count=1 samples, then the other
// memory-served routes.
func hotStream(seed int64, heldOut bool, conn int, hs hotSet) func() op {
	rng := newRand(seed, heldOut, "hot-reads", int64(conn)+1)
	return func() op {
		p := rng.Intn(1000)
		switch {
		case p < 550:
			return op{kind: opSample, level: 1 + rng.Intn(serverLevels), input: rng.Intn(serverN + 1), count: 1}
		case p < 600:
			return op{kind: opSample, level: 1 + rng.Intn(serverLevels), input: rng.Intn(serverN + 1), count: 1024}
		case p < 750:
			return hs.tailored[rng.Intn(len(hs.tailored))]
		case p < 800:
			return hs.compares[rng.Intn(len(hs.compares))]
		case p < 850:
			return op{kind: opResult, level: 1 + rng.Intn(serverLevels)}
		case p < 925:
			t := hs.tenants[rng.Intn(len(hs.tenants))].spec
			return op{kind: opTenantRelease, tenant: t.ID, n: t.N, level: 1 + rng.Intn(len(t.Levels))}
		default:
			t := hs.tenants[rng.Intn(len(hs.tenants))].spec
			return op{kind: opTenantSample, tenant: t.ID, n: t.N, level: 1 + rng.Intn(len(t.Levels)),
				input: rng.Intn(t.N + 1), count: 1 + rng.Intn(16)}
		}
	}
}
