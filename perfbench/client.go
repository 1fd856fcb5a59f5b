// The load generator's connections and the request loops that drive
// them.

package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// lane is one HTTP/1.1 connection to the server. Requests on a lane are
// sequential; each workload uses at most two lanes.
type lane struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newLane(base string) *lane {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &lane{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// do sends o and returns the status and body. The body is valid until
// the lane's next request.
func (l *lane) do(ctx context.Context, o op) (int, []byte, error) {
	path, body := o.request()
	method := http.MethodGet
	var rd io.Reader
	if o.post() {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, l.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	l.buf.Reset()
	if _, err := l.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, l.buf.Bytes(), nil
}

func (l *lane) close() { l.client.CloseIdleConnections() }

// timing is one completed request as the client saw it.
type timing struct {
	kind  opKind
	count int           // draws asked for (sample routes)
	lat   time.Duration // from send to response
	at    time.Duration // completion, from the start of the measured phase
}

// keptBody is a response kept for checking after the measured phase,
// with the op fields its check reads.
type keptBody struct {
	kind             opKind
	n, count, status int32
	block, off, end  int32
}

// keptBodies holds response bodies in fixed-size blocks, so keeping one
// never copies the others.
type keptBodies struct {
	blocks [][]byte
	kept   []keptBody
}

const keptBlock = 1 << 20

func (k *keptBodies) keep(o op, status int, body []byte) {
	b := len(k.blocks) - 1
	if b < 0 || len(k.blocks[b])+len(body) > cap(k.blocks[b]) {
		k.blocks = append(k.blocks, make([]byte, 0, max(keptBlock, len(body))))
		b++
	}
	off := len(k.blocks[b])
	k.blocks[b] = append(k.blocks[b], body...)
	k.kept = append(k.kept, keptBody{kind: o.kind, n: int32(o.n), count: int32(o.count), status: int32(status),
		block: int32(b), off: int32(off), end: int32(len(k.blocks[b]))})
}

// checkAll checks every kept response.
func (k *keptBodies) checkAll(chk *checker) {
	for _, r := range k.kept {
		chk.check(op{kind: r.kind, n: int(r.n), count: int(r.count)}, int(r.status), k.blocks[r.block][r.off:r.end])
	}
}

// closedLoop sends next() back to back on l from start until the
// deadline. A response to a repeatable key is checked at once, by byte
// comparison with its verified reference; every other body is kept and
// checked after the deadline (checkAll), so decoding it does not hold
// back the loop. It also returns how long the loop spent on checking
// and keeping between requests.
func closedLoop(ctx context.Context, l *lane, next func() op, start, deadline time.Time, chk *checker) ([]timing, *keptBodies, time.Duration) {
	var out []timing
	kept := &keptBodies{}
	var checking time.Duration
	for time.Now().Before(deadline) && ctx.Err() == nil {
		o := next()
		t0 := time.Now()
		status, body, err := l.do(ctx, o)
		done := time.Now()
		switch {
		case err != nil:
			chk.fail(o, err)
		case repeatable(o):
			chk.check(o, status, body)
		default:
			kept.keep(o, status, body)
		}
		checking += time.Since(done)
		out = append(out, timing{kind: o.kind, count: o.count, lat: done.Sub(t0), at: done.Sub(start)})
	}
	return out, kept, checking
}
