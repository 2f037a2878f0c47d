package main

// In-process servemodel nodes on loopback listeners, wired as
// cmd/servemodel wires a node by default: a traced in-memory tier under
// memo.Tiered, installed process-wide with mapper.SetBlobStore and served
// at /v1/memo. The nodes share the process-wide memo.Default cache, the
// blob store and the par worker budget — one process, like one servemodel
// with peers that happen to live in it.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/otrace"
	"repro/internal/serve"
)

type node struct {
	name string
	url  string
	hs   *http.Server
	srv  *serve.Server
	tap  *tap
	done chan error // Serve's return value
}

// cluster is one coordinator and its shard peers.
type cluster struct {
	coord *node
	peers []*node
	blob  *timedStore // nil unless traced
}

func (c *cluster) nodes() []*node { return append([]*node{c.coord}, c.peers...) }

// startCluster starts npeers peer nodes and a coordinator listing them.
// Request logs are formatted as servemodel formats them but discarded, so
// the work stays and the output does not. With traced, the blob store and
// every node's handler carry the benchmark's own timing taps (off until
// enabled).
func startCluster(npeers int, traced bool) (*cluster, error) {
	memo.Default.Reset()
	local := memo.WithTrace(memo.NewMem(0))
	var store memo.Store = memo.Tiered(local)
	c := &cluster{}
	if traced {
		c.blob = &timedStore{inner: store}
		store = c.blob
	}
	mapper.SetBlobStore(store)

	var urls []string
	for i := 0; i < npeers; i++ {
		n, err := startNode(fmt.Sprintf("peer%d", i+1), nil, local, traced)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.peers = append(c.peers, n)
		urls = append(urls, n.url)
	}
	n, err := startNode("coord", urls, local, traced)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.coord = n
	return c, nil
}

func startNode(name string, peers []string, local memo.Store, traced bool) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", name, err)
	}
	s := serve.New(serve.Config{
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		Peers:       peers,
		MemoStore:   local,
		MemoVersion: mapper.DiskVersion(),
		NodeName:    name,
	})
	n := &node{name: name, url: "http://" + ln.Addr().String(), srv: s, done: make(chan error, 1)}
	h := s.Handler()
	if traced {
		n.tap = &tap{}
		h = n.tap.wrap(h)
	}
	n.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop shuts every node down and waits for its Serve loop to return, then
// detaches the blob store.
func (c *cluster) stop() {
	for _, n := range c.nodes() {
		if n == nil {
			continue
		}
		if err := n.srv.Shutdown(n.hs, 5*time.Second); err != nil {
			_ = n.hs.Close() // drain failed: force the listener and connections closed
		}
		if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# node %s: %v\n", n.name, err)
		}
	}
	mapper.SetBlobStore(nil)
}

// setTaps turns the handler and blob-store taps on or off.
func (c *cluster) setTaps(on bool) {
	for _, n := range c.nodes() {
		if n.tap != nil {
			n.tap.on.Store(on)
		}
	}
	if c.blob != nil {
		c.blob.on.Store(on)
	}
}

// handled is one request as a node's handler saw it.
type handled struct {
	reqID string
	path  string
	trace string // trace id of the incoming traceparent, if any
	dur   time.Duration
}

// tap wraps a node's root handler and records the server-side time of
// every request while on. It sits outside serve's own middleware, so its
// window covers admission, decode, work and encode; net/http finishes the
// response only after it returns, so a client never observes a reply
// before its handler time is taken.
type tap struct {
	on   atomic.Bool
	mu   sync.Mutex
	recs []handled
}

func (t *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec := handled{reqID: w.Header().Get("X-Request-Id"), path: r.URL.Path, dur: time.Since(t0)}
		if tr, _, ok := otrace.Extract(r.Header); ok {
			rec.trace = tr.String()
		}
		t.mu.Lock()
		t.recs = append(t.recs, rec)
		t.mu.Unlock()
	})
}

// take returns and clears the records.
func (t *tap) take() []handled {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.recs
	t.recs = nil
	return out
}

// timedStore decorates the blob store handed to mapper.SetBlobStore and
// times every Get and Put while on.
type timedStore struct {
	inner memo.Store
	on    atomic.Bool
	mu    sync.Mutex
	gets  []float64 // µs
	puts  []float64 // µs
	hits  int
}

func (s *timedStore) Name() string { return s.inner.Name() }

func (s *timedStore) Get(ctx context.Context, k memo.Key) ([]byte, bool) {
	if !s.on.Load() {
		return s.inner.Get(ctx, k)
	}
	t0 := time.Now()
	b, ok := s.inner.Get(ctx, k)
	d := us(time.Since(t0))
	s.mu.Lock()
	s.gets = append(s.gets, d)
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return b, ok
}

func (s *timedStore) Put(ctx context.Context, k memo.Key, blob []byte) {
	if !s.on.Load() {
		s.inner.Put(ctx, k, blob)
		return
	}
	t0 := time.Now()
	s.inner.Put(ctx, k, blob)
	d := us(time.Since(t0))
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.mu.Unlock()
}

// snapshot returns the timings so far and the hit count.
func (s *timedStore) snapshot() (gets, puts []float64, hits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.gets...), append([]float64(nil), s.puts...), s.hits
}

// nodeNames lists node names, sorted, for the result header.
func (c *cluster) nodeNames() []string {
	var out []string
	for _, n := range c.nodes() {
		out = append(out, n.name)
	}
	sort.Strings(out)
	return out
}
