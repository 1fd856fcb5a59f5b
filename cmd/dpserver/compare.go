// POST /v1/compare — the mechanism-design workbench route — and the
// shared consumer-spec codec it introduces. The codec is the single
// wire definition of "a consumer model": /v1/tailored reads it from
// GET query parameters and /v1/compare reads it from a JSON body, so
// the two surfaces parse names, widths, side intervals, and priors
// identically and cannot drift apart.
//
// A compare request fixes (n, α, consumer, baseline set) and returns
// the engine's cached optimality-gap scorecard: each baseline's loss
// as deployed, its loss after the consumer's optimal reaction, the
// consumer's tailored-optimal loss, and the gaps between them — all
// exact rational strings. Theorem 1 part 2 is directly observable in
// the response: for every minimax consumer the geometric row's gap is
// the string "0".

package main

import (
	"fmt"
	"math/big"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/engine"
	"minimaxdp/internal/loss"
)

// maxCompareBody bounds one POST /v1/compare body. Specs are a few
// hundred bytes; anything near the cap is a client bug.
const maxCompareBody = 1 << 16

// consumerSpec is the wire form of a consumer model, shared verbatim
// between the GET query surface and the POST body surface: every
// field holds the same string it would carry in a query parameter.
type consumerSpec struct {
	// Model selects the consumer family: "minimax" (default) or
	// "bayesian".
	Model string `json:"model,omitempty"`
	// Loss is a registry name or alias (loss.Names lists the
	// canonical forms); empty means absolute.
	Loss string `json:"loss,omitempty"`
	// Width is the deadband width parameter; families without a width
	// reject a non-empty value.
	Width string `json:"width,omitempty"`
	// Side is a "lo-hi" side-information interval. Minimax only.
	Side string `json:"side,omitempty"`
	// Prior is the Bayesian prior over {0..n} as rational strings
	// (comma-separated in query form); empty means uniform. Bayesian
	// only.
	Prior []string `json:"prior,omitempty"`
}

// consumerSpecFromQuery reads the shared spec out of a GET query.
func consumerSpecFromQuery(q url.Values) consumerSpec {
	sp := consumerSpec{
		Model: q.Get("model"),
		Loss:  q.Get("loss"),
		Width: q.Get("width"),
		Side:  q.Get("side"),
	}
	if p := q.Get("prior"); p != "" {
		sp.Prior = strings.Split(p, ",")
	}
	return sp
}

// build validates the spec into a consumer model on {0..n}. The loss
// function is returned alongside the model for response rendering
// (the Model interface deliberately hides it). A spec is accepted
// only once the model's Key renders: Key is where a prior is checked
// to be a distribution on {0..n} and a side set to meet it.
func (sp consumerSpec) build(n int) (consumer.Model, loss.Function, error) {
	lf, err := loss.ParseSpec(sp.Loss, sp.Width)
	if err != nil {
		return nil, nil, err
	}
	var m consumer.Model
	switch sp.Model {
	case "", "minimax":
		if len(sp.Prior) > 0 {
			return nil, nil, fmt.Errorf("prior applies only to model=bayesian")
		}
		side, err := parseSide(sp.Side, n)
		if err != nil {
			return nil, nil, err
		}
		m = &consumer.Consumer{Loss: lf, Side: side}
	case "bayesian":
		if sp.Side != "" {
			return nil, nil, fmt.Errorf("side information applies only to model=minimax")
		}
		prior := consumer.UniformPrior(n)
		if len(sp.Prior) > 0 {
			prior = make([]*big.Rat, len(sp.Prior))
			for i, ps := range sp.Prior {
				prior[i], err = parseWireRat(ps)
				if err != nil {
					return nil, nil, fmt.Errorf("prior[%d]: %w", i, err)
				}
			}
		}
		m = &consumer.Bayesian{Loss: lf, Prior: prior}
	default:
		return nil, nil, fmt.Errorf("unknown model %q (want minimax or bayesian)", sp.Model)
	}
	if _, err := m.Key(n); err != nil {
		return nil, nil, err
	}
	return m, lf, nil
}

// compareRequest is the POST /v1/compare body. Numeric privacy
// parameters are rational strings, as everywhere on this surface.
type compareRequest struct {
	// N is the domain bound {0..n}; 0 means the server default
	// (the survey n clipped to the LP cap).
	N int `json:"n,omitempty"`
	// Alpha is an explicit privacy level; when empty, Level picks
	// from the server's ladder (default 1).
	Alpha string `json:"alpha,omitempty"`
	Level int    `json:"level,omitempty"`
	// Consumer is the shared consumer spec (see consumerSpec).
	Consumer consumerSpec `json:"consumer"`
	// Baselines lists baseline mechanisms to score, e.g.
	// ["geometric", "staircase:3", "laplace"]; empty means the
	// default set (geometric, staircase, laplace).
	Baselines []string `json:"baselines,omitempty"`
}

// compareEntryWire is one scorecard row; every numeric field is an
// exact rational string.
type compareEntryWire struct {
	Baseline        string `json:"baseline"`
	Loss            string `json:"loss"`
	InteractionLoss string `json:"interaction_loss"`
	Gap             string `json:"gap"`
	BestAlpha       string `json:"best_alpha"`
}

// compareSpec validates a decoded POST /v1/compare body into the
// engine's spec without running a solve: n defaults to the survey n
// clipped to the LP cap, α resolves as on /v1/tailored, and the
// consumer and every baseline must parse.
func (s *server) compareSpec(req *compareRequest) (engine.CompareSpec, error) {
	n := s.survey.N()
	if n > s.maxTailoredN {
		n = s.maxTailoredN
	}
	if req.N != 0 {
		if req.N < 1 {
			return engine.CompareSpec{}, fmt.Errorf("n must be a positive integer")
		}
		if req.N > s.maxTailoredN {
			return engine.CompareSpec{}, fmt.Errorf("n %d exceeds the LP cap %d", req.N, s.maxTailoredN)
		}
		n = req.N
	}
	levelStr := ""
	if req.Level != 0 {
		levelStr = strconv.Itoa(req.Level)
	}
	alpha, err := s.resolveAlpha(req.Alpha, levelStr)
	if err != nil {
		return engine.CompareSpec{}, err
	}
	model, _, err := req.Consumer.build(n)
	if err != nil {
		return engine.CompareSpec{}, err
	}
	specs := make([]baseline.Spec, 0, len(req.Baselines))
	for _, bs := range req.Baselines {
		spec, err := baseline.ParseSpec(bs)
		if err != nil {
			return engine.CompareSpec{}, err
		}
		specs = append(specs, spec)
	}
	return engine.CompareSpec{N: n, Alpha: alpha, Model: model, Baselines: specs}, nil
}

// handleCompare serves POST /v1/compare through the engine's compare
// artifact class: a repeat request for a behaviorally equal spec
// (aliased α, permuted baseline set, explicit default width) is a
// cache hit, and the nested LP solves run under the same wait bound
// and load-shedding bound as /v1/tailored.
func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxCompareBody), &req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "bad compare body: %v", err)
		return
	}
	spec, err := s.compareSpec(&req)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	ctx, cancel := s.solveContext(r)
	defer cancel()
	cmp, err := s.eng.CompareCtx(ctx, spec)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	entries := make([]compareEntryWire, len(cmp.Entries))
	for i, e := range cmp.Entries {
		entries[i] = compareEntryWire{
			Baseline:        e.Spec,
			Loss:            e.Loss.RatString(),
			InteractionLoss: e.InteractionLoss.RatString(),
			Gap:             e.Gap.RatString(),
			BestAlpha:       e.BestAlpha.RatString(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"n":             cmp.N,
		"alpha":         cmp.Alpha.RatString(),
		"model":         cmp.Model,
		"tailored_loss": cmp.TailoredLoss.RatString(),
		"baselines":     entries,
	})
}
