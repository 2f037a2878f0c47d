package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/otrace"
	"repro/internal/serve"
	"repro/internal/workload"
)

// streams renders every generated body of one seed, in order.
func streams(seed int64) []byte {
	var b bytes.Buffer
	cold, _ := coldSearches(seed)
	fab, _ := fabricSearches(seed)
	for _, r := range append(cold, fab...) {
		b.Write(r.body)
		b.WriteByte('\n')
	}
	p := mixWarm(seed)
	for _, r := range append(p.searches, p.networks...) {
		b.Write(r.body)
		b.WriteByte('\n')
	}
	for _, pk := range p.picks {
		fmt.Fprintf(&b, "%s %d\n", pk.kind, pk.i)
	}
	return b.Bytes()
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := streams(7), streams(7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated different requests")
	}
	if bytes.Equal(a, streams(8)) {
		t.Fatal("two seeds generated identical requests")
	}
}

// TestColdStreamsDistinct checks that no request of a cold stream repeats
// another's memo key (shape with precision, arch, objective, budget), so
// the timed set can never hit the memo.
func TestColdStreamsDistinct(t *testing.T) {
	cold, coldBlock := coldSearches(3)
	fab, fabBlock := fabricSearches(3)
	for _, s := range []struct {
		name  string
		reqs  []request
		block int
		warm  int
	}{{"search_cold", cold, coldBlock, coldWarmup}, {"fabric_sharded", fab, fabBlock, fabricWarmup}} {
		if got, want := len(s.reqs)-s.warm, s.block*len(precisions); got != want {
			t.Errorf("%s: %d timed requests, want %d cycles of %d", s.name, got, len(precisions), s.block)
		}
		seen := map[string]bool{}
		for _, r := range s.reqs {
			l, err := r.search.Layer.ToLayer()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			k := fmt.Sprintf("%s|%s|%s|%d", l.ShapeKey(), r.search.Arch, r.search.Objective, r.search.Budget)
			if seen[k] {
				t.Fatalf("%s: request %s repeats a memo key", s.name, r.body)
			}
			seen[k] = true
		}
	}
}

// TestMixSharesExact checks that mix_warm's timed sequence holds every
// working-set entry equally often, one quarter per request class, and that
// seeds differ only in the order.
func TestMixSharesExact(t *testing.T) {
	count := func(seed int64) map[pick]int {
		m := map[pick]int{}
		for _, pk := range mixWarm(seed).picks {
			m[pk]++
		}
		return m
	}
	a := count(7)
	if len(a) != 2*mixSearches+8 {
		t.Fatalf("%d distinct picks, want %d", len(a), 2*mixSearches+8)
	}
	for pk, n := range a {
		want := mixPicks / 4 / mixSearches
		if pk.kind == kindNetwork {
			want = mixPicks / 4 / 4
		}
		if n != want {
			t.Errorf("%s %d picked %d times, want %d", pk.kind, pk.i, n, want)
		}
	}
	for pk, n := range count(8) {
		if a[pk] != n {
			t.Errorf("%s %d picked %d times by seed 8, %d by seed 7", pk.kind, pk.i, n, a[pk])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %g, want 2 (nearest rank)", got)
	}
	if median(nil) != 0 {
		t.Error("median of no samples must read 0")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {999, 99, 9}, {10000, 99.9, 10}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestWholeBlocks checks that a timed phase with block > 1 always ends on
// a whole number of blocks.
func TestWholeBlocks(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	reqs := make([]request, 500)
	for i := range reqs {
		reqs[i] = request{kind: kindSearch, body: []byte("{}")}
	}
	lr := runLoad(newHTTPClient(), ts.URL, reqs, loadSpec{from: 3, clients: 2, d: 30 * time.Millisecond, block: 7, retain: true})
	if n := len(lr.samples); n == 0 || n%7 != 0 || lr.exhausted {
		t.Fatalf("%d samples (exhausted %t), want a positive multiple of 7", n, lr.exhausted)
	}
	for _, s := range lr.samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	// A zero duration still runs exactly one whole block.
	lr = runLoad(newHTTPClient(), ts.URL, reqs, loadSpec{from: 3, clients: 2, block: 7})
	if lr.attempted != 7 || lr.next != 10 {
		t.Fatalf("zero-duration phase: %d requests, next %d; want one block of 7, next 10", lr.attempted, lr.next)
	}
}

// TestTracedIdentities runs small sharded searches through a coordinator
// and two peers with the taps on, and checks the two identities the traced
// run relies on: the assembled critical-path categories sum exactly to the
// wall time, and no handler time exceeds its client time.
func TestTracedIdentities(t *testing.T) {
	c, err := startCluster(2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	c.setTaps(true)
	wl := workloads["fabric_sharded"]
	tr := &tracedRun{c: c, wl: wl, wires: map[string][]otrace.WireTrace{}}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cl := &client{hc: hc, base: c.coord.url}
	var samples []sample
	for i, b := range []int64{24, 32, 40, 48} {
		l := workload.NewMatMul(fmt.Sprintf("m%d", i), b, 32, 32)
		req := &serve.SearchRequest{Layer: config.FromLayer(&l), Budget: 400, Shards: 4}
		s := cl.do(newRequest(kindSearch, req), true)
		if s.err != nil {
			t.Fatal(s.err)
		}
		tr.collect(hc, &s)
		samples = append(samples, s)
	}
	c.setTaps(false)
	handlers := map[string]time.Duration{}
	for _, h := range c.coord.tap.take() {
		handlers[h.reqID] = h.dur
	}
	for _, s := range samples {
		h, ok := handlers[s.reqID]
		if !ok || h <= 0 || h > s.lat {
			t.Errorf("request %s: handler %v (recorded %t), client %v", s.reqID, h, ok, s.lat)
		}
		if len(tr.wires[s.trace]) < 2 {
			t.Fatalf("trace %s: spans from %d nodes, want the coordinator and a peer", s.trace, len(tr.wires[s.trace]))
		}
		r, err := criticalPath(tr.wires[s.trace], s.span)
		if err != nil {
			t.Fatal(err)
		}
		sum := r.PlanNS + r.QueueNS + r.WalkNS + r.StealNS + r.MemoNS + r.NetworkNS + r.MergeNS + r.OtherNS
		if r.WallNS <= 0 || sum != r.WallNS || r.DiffNS != 0 {
			t.Errorf("trace %s: categories sum %d ns, wall %d ns, diff %d", s.trace, sum, r.WallNS, r.DiffNS)
		}
		if r.WalkNS <= 0 {
			t.Errorf("trace %s: no walk time attributed: %+v", s.trace, r)
		}
	}
}

// TestNoMappingAnswer sends a search that finds no valid mapping within
// its budget: the 422 reply is an answer the check accepts, because the
// library fails on the same input with the same message, and a served 422
// for a search the library can answer is refused.
func TestNoMappingAnswer(t *testing.T) {
	c, err := startCluster(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cl := &client{hc: hc, base: c.coord.url}
	var l workload.Layer
	for _, cl := range convLayers() {
		if cl.Name == "vgg16.conv4_1" {
			l = cl // no valid mapping on tpulike at any budget
		}
	}
	req := &serve.SearchRequest{Layer: config.FromLayer(&l), Budget: 10}
	req.Arch = "tpulike"
	s := cl.do(newRequest(kindSearch, req), false)
	if s.err != nil || s.noMapping == "" {
		t.Fatalf("want a 422 answer, got err %v, message %q", s.err, s.noMapping)
	}
	if _, err := checkSearch(req, &s); err != nil {
		t.Fatal(err)
	}
	req.Arch = "inhouse"
	if _, err := checkSearch(req, &s); err == nil {
		t.Fatal("a 422 the library does not reproduce was accepted")
	}
}
