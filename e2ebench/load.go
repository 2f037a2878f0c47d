package main

// The closed-loop load generator: each client sends its next request only
// after the previous reply is read and decoded, so a slower server receives
// less load — the way a DSE loop or a compiler waits on this service.

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/otrace"
	"repro/internal/serve"
)

// sample is one completed (or failed) request.
type sample struct {
	idx   int // position in the workload's request list
	lat   time.Duration
	bytes int
	reqID string
	trace string // trace and span id the client sent (traced phase only)
	span  string
	err   error // transport, status, decode or check failure
	// noMapping is the message of a 422 reply: the request was well formed
	// and its search found no valid mapping. That is an answer, accepted
	// once the library fails on the same input with the same message.
	noMapping string
	direct    time.Duration // the library call the answer was checked with
	body      []byte        // the raw reply, until the inline check drops it
	search    *serve.SearchResponse
	eval      *serve.EvalResponse
	network   *serve.NetworkResponse
}

func (s *sample) ok() bool { return s.err == nil }

// client is one closed-loop caller.
type client struct {
	hc   *http.Client
	base string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// do sends one request and strictly decodes the reply. With traced, it
// roots a fresh trace id in a W3C traceparent so the node's spans for this
// request can be fetched from GET /v1/trace/{id}.
func (c *client) do(r request, traced bool) sample {
	var s sample
	hreq, err := http.NewRequest(http.MethodPost, c.base+r.kind.path(), bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traced {
		tid := otrace.NewTraceID()
		var sid otrace.SpanID
		_, _ = rand.Read(sid[:]) // crypto/rand.Read never fails on supported platforms
		hreq.Header.Set("traceparent", otrace.Traceparent(tid, sid))
		s.trace, s.span = tid.String(), sid.String()
	}
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.lat, s.err = time.Since(t0), err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	s.bytes, s.reqID = len(body), resp.Header.Get("X-Request-Id")
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode == http.StatusUnprocessableEntity:
		s.body = body
		s.err = s.decodeNoMapping(body)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s: status %d: %s", r.kind.path(), resp.StatusCode, bytes.TrimSpace(body))
	default:
		s.body = body
		s.err = s.decode(r.kind, body)
	}
	return s
}

// decode unmarshals the reply into the endpoint's response type, refusing
// unknown fields and trailing data.
func (s *sample) decode(k kind, body []byte) error {
	var v any
	switch k {
	case kindSearch:
		s.search = &serve.SearchResponse{}
		v = s.search
	case kindEval:
		s.eval = &serve.EvalResponse{}
		v = s.eval
	default:
		s.network = &serve.NetworkResponse{}
		v = s.network
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %s reply: %w", k, err)
	}
	if dec.More() {
		return fmt.Errorf("decode %s reply: trailing data", k)
	}
	return nil
}

// decodeNoMapping strictly decodes a 422 reply's error message.
func (s *sample) decodeNoMapping(body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || dec.More() || e.Error == "" {
		return fmt.Errorf("status 422 with an undecodable error reply: %s", bytes.TrimSpace(body))
	}
	s.noMapping = e.Error
	return nil
}

// add appends another phase's outcome.
func (r *loadResult) add(o loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.lats = append(r.lats, o.lats...)
	r.attempted += o.attempted
	r.errs = append(r.errs, o.errs...)
	r.elapsed += o.elapsed
	r.next = o.next
	r.exhausted = r.exhausted || o.exhausted
}

// loadResult is one closed-loop phase.
type loadResult struct {
	samples   []*sample // retained samples (all of them with retain)
	lats      []float64 // ms, every successful request
	attempted int
	errs      []error // every failed request's error
	elapsed   time.Duration
	next      int // the index after the last one taken
	// exhausted is set when a non-cycling request list ran out before the
	// deadline.
	exhausted bool
}

// loadSpec describes one closed-loop phase over a request list.
type loadSpec struct {
	from    int // first index sent
	clients int
	d       time.Duration
	// cycle wraps around the list (warm working sets); without it the
	// phase ends early if the list runs out.
	cycle bool
	// block > 1 extends the phase past d to the next positive multiple of
	// block requests after from.
	block  int
	traced bool
	// after, when set, runs on the client's goroutine after each reply,
	// outside that request's latency.
	after func(*sample)
	// retain keeps every sample; otherwise only latencies and errors are
	// kept, so a long warm phase does not grow the heap it measures.
	retain bool
}

// runLoad drives closed-loop clients over reqs; each client takes the next
// unsent index until the phase ends.
func runLoad(hc *http.Client, base string, reqs []request, ls loadSpec) loadResult {
	var (
		mu        sync.Mutex
		next      = ls.from
		stopped   bool
		exhausted bool
	)
	t0 := time.Now()
	deadline := t0.Add(ls.d)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case stopped:
			return 0, false
		case time.Now().After(deadline) && (ls.block <= 1 || next > ls.from && (next-ls.from)%ls.block == 0):
			stopped = true
			return 0, false
		case next >= len(reqs) && !ls.cycle:
			stopped, exhausted = true, true
			return 0, false
		}
		i := next
		next++
		if i >= len(reqs) {
			i = ls.from + (i-ls.from)%(len(reqs)-ls.from)
		}
		return i, true
	}
	per := make([]loadResult, ls.clients)
	var wg sync.WaitGroup
	for ci := 0; ci < ls.clients; ci++ {
		wg.Add(1)
		go func(r *loadResult) {
			defer wg.Done()
			c := &client{hc: hc, base: base}
			for {
				i, ok := take()
				if !ok {
					return
				}
				s := c.do(reqs[i], ls.traced)
				s.idx = i
				if ls.after != nil {
					ls.after(&s)
				}
				s.body = nil
				r.attempted++
				if s.err != nil {
					r.errs = append(r.errs, s.err)
				} else {
					r.lats = append(r.lats, ms(s.lat))
				}
				if ls.retain {
					r.samples = append(r.samples, &s)
				}
			}
		}(&per[ci])
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(t0), exhausted: exhausted, next: next}
	for _, r := range per {
		res.samples = append(res.samples, r.samples...)
		res.lats = append(res.lats, r.lats...)
		res.errs = append(res.errs, r.errs...)
		res.attempted += r.attempted
	}
	return res
}
