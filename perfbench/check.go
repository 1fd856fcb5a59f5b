// Correctness checks on served responses. A response that fails a check
// counts as a failed operation.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"sync"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// buildConsumer resolves a wire consumer spec into the minimax consumer
// it names (Bayesian specs are not checked against MinimaxLoss).
func buildConsumer(c consumerSpec) (*consumer.Consumer, error) {
	lf, err := loss.ParseSpec(c.Loss, c.Width)
	if err != nil {
		return nil, err
	}
	out := &consumer.Consumer{Loss: lf}
	if c.Side != "" {
		var lo, hi int
		if _, err := fmt.Sscanf(c.Side, "%d-%d", &lo, &hi); err != nil {
			return nil, fmt.Errorf("side %q: %w", c.Side, err)
		}
		out.Side = consumer.Interval(lo, hi)
	}
	return out, nil
}

// checkTailored verifies a /v1/tailored?mech=1 body: the mechanism is
// exactly α-DP and the served minimax loss equals MinimaxLoss
// recomputed in-process.
func checkTailored(o op, body []byte) error {
	var resp struct {
		N           int                  `json:"n"`
		Alpha       string               `json:"alpha"`
		MinimaxLoss string               `json:"minimax_loss"`
		Mechanism   *mechanism.Mechanism `json:"mechanism"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("tailored body: %w", err)
	}
	alpha, err := rational.Parse(o.alpha)
	if err != nil {
		return err
	}
	if resp.N != o.n || resp.Alpha != alpha.RatString() || resp.Mechanism == nil {
		return fmt.Errorf("tailored body does not answer n=%d α=%s", o.n, o.alpha)
	}
	served, err := rational.Parse(resp.MinimaxLoss)
	if err != nil {
		return fmt.Errorf("minimax_loss: %w", err)
	}
	return verifyTailored(o, resp.Mechanism, served)
}

// verifyTailored checks a tailored mechanism for o's minimax consumer:
// it is exactly α-DP and its loss equals MinimaxLoss recomputed here.
func verifyTailored(o op, mech *mechanism.Mechanism, loss *big.Rat) error {
	if err := mech.CheckDP(rational.MustParse(o.alpha)); err != nil {
		return fmt.Errorf("served mechanism not %s-DP: %w", o.alpha, err)
	}
	c, err := buildConsumer(o.cons)
	if err != nil {
		return err
	}
	want, err := c.MinimaxLoss(mech)
	if err != nil {
		return err
	}
	if want.Cmp(loss) != 0 {
		return fmt.Errorf("%s: minimax loss %s, recomputed %s", o.key(), loss.RatString(), want.RatString())
	}
	return nil
}

// checkCompare verifies a /v1/compare scorecard: every minimax
// scorecard's geometric row has gap exactly "0" (Theorem 1).
func checkCompare(o op, body []byte) error {
	var resp struct {
		Model     string `json:"model"`
		Baselines []struct {
			Baseline string `json:"baseline"`
			Gap      string `json:"gap"`
		} `json:"baselines"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("compare body: %w", err)
	}
	if len(resp.Baselines) == 0 {
		return fmt.Errorf("compare scorecard has no rows")
	}
	if resp.Model != "minimax" {
		return nil
	}
	for _, b := range resp.Baselines {
		if b.Baseline == "geometric" {
			if b.Gap != "0" {
				return fmt.Errorf("geometric gap %s, want 0 (Theorem 1)", b.Gap)
			}
			return nil
		}
	}
	return fmt.Errorf("minimax scorecard has no geometric row")
}

// checkDraws verifies a sample body: count draws, each in [0, n].
func checkDraws(o op, n int, body []byte) error {
	var resp struct {
		Count int   `json:"count"`
		Draws []int `json:"draws"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("sample body: %w", err)
	}
	if resp.Count != o.count || len(resp.Draws) != o.count {
		return fmt.Errorf("asked for %d draws, got %d", o.count, len(resp.Draws))
	}
	for _, d := range resp.Draws {
		if d < 0 || d > n {
			return fmt.Errorf("draw %d outside [0,%d]", d, n)
		}
	}
	return nil
}

// checkResult verifies a (tenant) release body: the result lies in
// [0, n].
func checkResult(n int, body []byte) error {
	var resp struct {
		Result *int `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("release body: %w", err)
	}
	if resp.Result == nil || *resp.Result < 0 || *resp.Result > n {
		return fmt.Errorf("released result outside [0,%d]", n)
	}
	return nil
}

// checkResponse applies the op's correctness check to one response.
func checkResponse(o op, status int, body []byte) error {
	want := http.StatusOK
	if o.kind == opRegister {
		want = http.StatusCreated
	}
	if status != want {
		return fmt.Errorf("%s: status %d: %s", o.kind, status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opTailored:
		return checkTailored(o, body)
	case opCompare:
		return checkCompare(o, body)
	case opSample:
		return checkDraws(o, serverN, body)
	case opTenantSample:
		return checkDraws(o, o.n, body)
	case opResult:
		return checkResult(serverN, body)
	case opTenantRelease:
		return checkResult(o.n, body)
	}
	return nil
}

// checker counts failed checks and holds the verified reference body of
// every repeatable key (tailored and compare artifacts), so a repeat
// response is checked by byte identity with the first one.
type checker struct {
	mu       sync.Mutex
	refs     map[string][]byte
	failures map[string]int
	first    error
}

func newChecker() *checker {
	return &checker{refs: make(map[string][]byte), failures: make(map[string]int)}
}

// repeatable reports whether every response to o must carry the same
// bytes.
func repeatable(o op) bool { return o.kind == opTailored || o.kind == opCompare }

// check verifies one response and reports whether it passed.
func (c *checker) check(o op, status int, body []byte) bool {
	if repeatable(o) && status == http.StatusOK {
		k := o.key()
		c.mu.Lock()
		ref, ok := c.refs[k]
		c.mu.Unlock()
		if ok {
			if bytes.Equal(ref, body) {
				return true
			}
			c.fail(o, fmt.Errorf("%s body differs from the first response for %s", o.kind, k))
			return false
		}
		if err := checkResponse(o, status, body); err != nil {
			c.fail(o, err)
			return false
		}
		c.mu.Lock()
		c.refs[k] = append([]byte(nil), body...)
		c.mu.Unlock()
		return true
	}
	if err := checkResponse(o, status, body); err != nil {
		c.fail(o, err)
		return false
	}
	return true
}

// fail records a failed operation.
func (c *checker) fail(o op, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures[o.kind.String()]++
	if c.first == nil {
		c.first = err
	}
}

// failed is the number of failed operations so far.
func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.failures {
		n += v
	}
	return n
}
