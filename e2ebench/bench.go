package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/memo"
)

// workload is one seeded traffic pattern.
type workloadDef struct {
	name    string
	clients int // closed-loop clients
	peers   int // shard peers behind the coordinator
	// prepare generates the requests and warms what the workload needs
	// warm; it is part of set-up.
	prepare func(c *cluster, seed int64) (*prepared, error)
}

var workloads = map[string]*workloadDef{
	// Every request a distinct search: the mapper engine and core scoring
	// do the work, memo only writes, fabric is bypassed. One client: a
	// search already spreads over every core through the par budget, and
	// with two clients which searches happened to run side by side moved
	// p50 by a quarter between runs of the same seed.
	"search_cold": {name: "search_cold", clients: 1, prepare: prepareCold},
	// A pre-warmed working set of evals, repeat searches and networks:
	// serve, memo reads, network assembly, core.Evaluate and energy.
	"mix_warm": {name: "mix_warm", clients: 2, prepare: prepareMix},
	// Cold sharded searches over two peers: fabric plan/steal/merge, shard
	// RPCs and the remote walk.
	"fabric_sharded": {name: "fabric_sharded", clients: 1, peers: 2, prepare: prepareFabric},
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// prepared is a workload ready to measure.
type prepared struct {
	reqs  []request
	from  int  // first timed index; earlier entries warmed the process
	cycle bool // the timed phase wraps around reqs
	// block > 1 makes a timed phase end on a whole basket cycle: once the
	// time is up, the clients finish the cycle in progress, so every run
	// measures whole cycles of the same problems.
	block int
	// mix_warm's working set in generation order, and each timed
	// request's entry: every timed reply must equal the warm-up reply.
	set   []*refEntry
	refOf []*refEntry
}

type refEntry struct {
	req   request
	reply *sample
	body  []byte // the warm-up reply as sent
}

// warmDeadline bounds one warm-up pass.
const warmDeadline = 120 * time.Second

// warm sends every request once (closed loop, nclients) and returns the
// replies in request order, failing on the first bad one.
func warm(c *cluster, reqs []request, nclients int) ([]*sample, [][]byte, error) {
	bodies := make([][]byte, len(reqs))
	keep := func(s *sample) { bodies[s.idx] = s.body }
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	lr := runLoad(hc, c.coord.url, reqs, loadSpec{clients: nclients, d: warmDeadline, after: keep, retain: true})
	if len(lr.errs) > 0 {
		return nil, nil, fmt.Errorf("warm-up: %w", lr.errs[0])
	}
	out := make([]*sample, len(reqs))
	for _, s := range lr.samples {
		out[s.idx] = s
	}
	for i, s := range out {
		if s == nil {
			return nil, nil, fmt.Errorf("warm-up request %d not sent within %v", i, warmDeadline)
		}
	}
	return out, bodies, nil
}

// prepareCold and prepareFabric warm the process on their stream's warm-up
// problems, which lie outside the basket, so every timed search is cold.
func prepareCold(c *cluster, seed int64) (*prepared, error) {
	reqs, block := coldSearches(seed)
	return prepareStream(c, reqs, block, coldWarmup)
}

func prepareFabric(c *cluster, seed int64) (*prepared, error) {
	reqs, block := fabricSearches(seed)
	return prepareStream(c, reqs, block, fabricWarmup)
}

func prepareStream(c *cluster, reqs []request, block, nwarm int) (*prepared, error) {
	if _, _, err := warm(c, reqs[:nwarm], 1); err != nil {
		return nil, err
	}
	return &prepared{reqs: reqs, from: nwarm, block: block}, nil
}

// prepareMix searches and evaluates the whole working set once, derives
// the eval requests from the searched winners, and prices each once. A
// search with no valid mapping has no winner to price; its eval picks
// repeat the search instead.
func prepareMix(c *cluster, seed int64) (*prepared, error) {
	plan := mixWarm(seed)
	set := append(append([]request(nil), plan.searches...), plan.networks...)
	replies, bodies, err := warm(c, set, 2)
	if err != nil {
		return nil, err
	}
	evals := make([]request, len(plan.searches))
	var priced []request
	for i, s := range plan.searches {
		evals[i] = s
		if r := replies[i].search; r != nil {
			evals[i] = evalFor(s.search, r)
			priced = append(priced, evals[i])
		}
	}
	evalReplies, evalBodies, err := warm(c, priced, 2)
	if err != nil {
		return nil, err
	}
	p := &prepared{reqs: plan.sequence(evals), cycle: true}
	byBody := map[string]*refEntry{}
	add := func(r request, reply *sample, body []byte) {
		e := &refEntry{r, reply, body}
		p.set = append(p.set, e)
		byBody[string(r.body)] = e
	}
	for i, r := range set {
		add(r, replies[i], bodies[i])
	}
	for i, r := range priced {
		add(r, evalReplies[i], evalBodies[i])
	}
	for _, r := range p.reqs {
		p.refOf = append(p.refOf, byBody[string(r.body)])
	}
	return p, nil
}

// inline checks a mix_warm reply against the warm-up reply to the same
// request as it arrives — searches field by field (the search id differs
// per call), evals, networks and 422 replies byte for byte — and drops the payloads a
// long warm phase cannot afford to keep.
func (p *prepared) inline(s *sample) {
	if p.refOf == nil || s.err != nil {
		return
	}
	e := p.refOf[s.idx]
	same := bytes.Equal(s.body, e.body)
	if s.search != nil && e.reply.search != nil {
		x, y := *s.search, *e.reply.search
		x.SearchID, y.SearchID = "", ""
		same = reflect.DeepEqual(x, y)
	}
	if !same {
		s.err = fmt.Errorf("%s reply differs from the warm-up reply to the same request", e.req.kind)
	}
	s.eval, s.network = nil, nil
}

// setupReps is how many times a run sets up; setup_s is their median and
// the last set-up is the one measured.
const setupReps = 3

// execute sets the workload up setupReps times, measures it, checks every
// answer and computes the metrics.
func execute(o options, wl *workloadDef, out io.Writer) (*report, error) {
	var setups []float64
	var c *cluster
	var p *prepared
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		var err error
		if c, err = startCluster(wl.peers, o.trace); err != nil {
			return nil, err
		}
		if p, err = wl.prepare(c, o.seed); err != nil {
			c.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.stop()
	fmt.Fprintf(out, "# set-up: %d runs, %.3f s median (nodes: %v)\n", len(setups), median(setups), c.nodeNames())

	rep := &report{}
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		tr := runTraced(c, wl, p, d)
		verify(rep, wl, p, o.seed, out, tr.untraced.load, tr.traced.load)
		tr.layerMetrics(rep, wl, p, out)
		selfCheck(rep, wl, tr.untraced.memo.add(tr.traced.memo))
		return rep, nil
	}
	runtime.GC()
	ph := measure(c, p, p.from, wl.clients, d, false, nil)
	verify(rep, wl, p, o.seed, out, ph.load)
	selfCheck(rep, wl, ph.memo)

	lat := ph.load.lats
	n := len(lat)
	secs := ph.load.elapsed.Seconds()
	rps, cpuMS := ph.rates()
	rep.set("throughput_rps", rps, "1/s")
	p50, p90 := ph.percentiles()
	rep.set("latency_p50_ms", p50, "ms")
	rep.set("latency_p90_ms", p90, "ms")
	rep.set("cpu_ms_per_req", cpuMS, "ms")
	rep.set("heap_live_mb", ph.heapMB, "MiB")
	rep.set("setup_s", median(setups), "s")
	fmt.Fprintf(out, "# %s: %d clients, closed loop, %.3f s measured in %d windows (%.4g rps, %.4g cpu ms/req overall); %d attempted, %d failed, failed_share %.4g\n",
		wl.name, wl.clients, secs, len(ph.windows), float64(n)/secs, ms(ph.cpu)/float64(max(n, 1)),
		rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	fmt.Fprintf(out, "# latency samples %d: p50 has %d beyond, p90 %d beyond", n, beyond(n, 50), beyond(n, 90))
	if tp := tailPercentile(n); tp > 0 {
		fmt.Fprintf(out, "; highest percentile with >= 10 beyond: p%g = %.3f ms", tp, percentile(lat, tp))
	}
	if beyond(n, 99) >= 10 {
		fmt.Fprintf(out, "; latency_p99_ms %.3f", percentile(lat, 99))
	}
	fmt.Fprintln(out)
	if ph.load.exhausted {
		fmt.Fprintf(out, "# note: the request pool ran out after %.3f s\n", secs)
	}
	return rep, nil
}

// memoDelta is the memo.Default traffic of one phase.
type memoDelta struct{ hits, misses, waits int64 }

func (a memoDelta) add(b memoDelta) memoDelta {
	return memoDelta{a.hits + b.hits, a.misses + b.misses, a.waits + b.waits}
}

// phase is one measured closed-loop phase, run as consecutive windows:
// one basket cycle each for the cold workloads, mixWindow each for
// mix_warm. Rates are reported as the median over windows, so a burst of
// noise from a shared host moves one window, not the result; so are
// mix_warm's latency percentiles, whose windows hold a thousand or more
// samples each.
type phase struct {
	load    loadResult
	cpu     time.Duration // process user+sys CPU
	memo    memoDelta
	windows []window
	// timed is set when the windows are mixWindow long rather than one
	// basket cycle each.
	timed bool
	// heapMB is the live heap after the first window: a fixed amount of
	// work for the cold workloads, so a program fast enough to fit more
	// cycles into the run is not charged for the extra memo entries.
	heapMB float64
}

type window struct {
	n        int // successful requests
	elapsed  time.Duration
	cpu      time.Duration
	p50, p90 float64 // ms
}

// mixWindow is the window length of workloads without a basket.
const mixWindow = 1 * time.Second

// rates returns the median throughput and CPU per request over windows.
func (ph *phase) rates() (rps, cpuMS float64) {
	var r, c []float64
	for _, w := range ph.windows {
		if w.n > 0 {
			r = append(r, float64(w.n)/w.elapsed.Seconds())
			c = append(c, ms(w.cpu)/float64(w.n))
		}
	}
	return median(r), median(c)
}

// percentiles returns p50 and p90 of the client-observed latency: medians
// over timed windows, or over every request of the phase when a window is
// one basket cycle (a few dozen searches, too few for a window's own p90).
func (ph *phase) percentiles() (p50, p90 float64) {
	if !ph.timed {
		return median(ph.load.lats), percentile(append([]float64(nil), ph.load.lats...), 90)
	}
	var a, b []float64
	for _, w := range ph.windows {
		if w.n > 0 {
			a, b = append(a, w.p50), append(b, w.p90)
		}
	}
	return median(a), median(b)
}

// measure runs one timed phase of at least d over p's requests. Replies
// are checked inline where the workload allows; samples are retained for
// the later checks and, with traced, for the per-layer metrics.
func measure(c *cluster, p *prepared, from, nclients int, d time.Duration, traced bool, after func(*sample)) phase {
	cnt := memo.Default.Counters()
	h0, m0, w0 := cnt.Hits(), cnt.Misses(), cnt.InflightWaits()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ls := loadSpec{
		from: from, clients: nclients, d: mixWindow, cycle: p.cycle, block: p.block, traced: traced,
		retain: !p.cycle || traced,
		after: func(s *sample) {
			p.inline(s)
			if after != nil {
				after(s)
			}
		},
	}
	if p.block > 1 {
		ls.d = 0 // exactly one cycle per window
	}
	ph := phase{timed: p.block <= 1}
	t0 := time.Now()
	for time.Since(t0) < d && !ph.load.exhausted {
		cpu0 := cpuTime()
		lr := runLoad(hc, c.coord.url, p.reqs, ls)
		w := window{n: len(lr.lats), elapsed: lr.elapsed, cpu: cpuTime() - cpu0}
		if len(lr.lats) > 0 {
			w.p50, w.p90 = median(lr.lats), percentile(lr.lats, 90)
		}
		ph.windows = append(ph.windows, w)
		ph.cpu += w.cpu
		ph.load.add(lr)
		if !p.cycle {
			ls.from = lr.next
		}
		if len(ph.windows) == 1 {
			ph.heapMB = liveHeapMB()
		}
	}
	ph.memo = memoDelta{cnt.Hits() - h0, cnt.Misses() - m0, cnt.InflightWaits() - w0}
	return ph
}

// liveHeapMB collects twice — the first collection moves sync.Pool
// contents to the victim cache, the second frees them — and returns the
// live heap in MiB. It runs between windows, outside every timed request.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfCheck asserts that each workload measured what it claims: every
// timed search_cold request missed the memo, every timed mix_warm search
// hit it.
func selfCheck(rep *report, wl *workloadDef, d memoDelta) {
	switch {
	case wl.name == "search_cold" && d.hits != 0:
		rep.fail(fmt.Errorf("search_cold timed set is not memo-cold: %d hits", d.hits))
	case wl.name == "mix_warm" && d.misses != 0:
		rep.fail(fmt.Errorf("mix_warm timed set is not all hits: %d misses", d.misses))
	}
}

// coldChecks is how many search_cold answers are re-derived per run, on
// top of every answer of no valid mapping.
const coldChecks = 12

// verify counts every request and checks the answers. Failed requests,
// including mix_warm replies that differed from their warm-up reply, count
// as failed; search_cold re-derives a seeded sample of its answers and
// every 422 through mapper.Best, fabric_sharded every answer against the
// unsharded search, and mix_warm re-derives a seeded sample of its working
// set.
func verify(rep *report, wl *workloadDef, p *prepared, seed int64, out io.Writer, loads ...loadResult) {
	var ok []*sample
	for _, lr := range loads {
		rep.attempted += lr.attempted
		rep.failed += len(lr.errs)
		for _, err := range lr.errs {
			rep.fail(err)
		}
		for _, s := range lr.samples {
			if s.err == nil {
				ok = append(ok, s)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	switch wl.name {
	case "search_cold", "fabric_sharded":
		check := ok
		if wl.name == "search_cold" && len(check) > coldChecks {
			check = append([]*sample(nil), ok...)
			rng.Shuffle(len(check), func(i, j int) { check[i], check[j] = check[j], check[i] })
			n := coldChecks
			for i := n; i < len(check); i++ {
				if check[i].noMapping != "" { // every 422 is re-derived
					check[n], check[i] = check[i], check[n]
					n++
				}
			}
			check = check[:n]
		}
		var none int
		for _, s := range check {
			d, err := checkSearch(p.reqs[s.idx].search, s)
			s.direct = d
			if s.noMapping != "" {
				none++
			}
			if err != nil {
				s.err = err
				rep.failed++
				rep.fail(err)
			}
		}
		fmt.Fprintf(out, "# checked %d of %d answers against mapper.Best (memo off); %d answered no valid mapping (422)\n", len(check), len(ok), none)
	case "mix_warm":
		n := verifyWorkingSet(rep, p, rng)
		fmt.Fprintf(out, "# checked every reply against its warm-up reply; %d working-set entries re-derived through the library\n", n)
	}
}

// verifyWorkingSet re-derives a seeded sample of mix_warm's warm-up replies
// through the library: 8 searches, 8 evals, one conv net and one
// transformer block. It returns how many it checked.
func verifyWorkingSet(rep *report, p *prepared, rng *rand.Rand) int {
	quota := map[string]int{"search": 8, "eval": 8, "net": 1, "block": 1}
	n := 0
	for _, i := range rng.Perm(len(p.set)) {
		e := p.set[i]
		q := e.req.kind.String()
		if e.req.network != nil {
			q = "net"
			if e.req.network.Transformer != nil {
				q = "block"
			}
		}
		if quota[q] == 0 {
			continue
		}
		quota[q]--
		var err error
		switch e.req.kind {
		case kindSearch:
			e.reply.direct, err = checkSearch(e.req.search, e.reply)
		case kindEval:
			err = checkEval(e.req.eval, e.reply)
		default:
			err = checkNetwork(e.req.network, e.reply)
		}
		n++
		if err != nil {
			rep.fail(fmt.Errorf("working set: %w", err))
		}
	}
	return n
}
