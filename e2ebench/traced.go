package main

// The traced run: half the time untraced (the overhead baseline), half
// with the benchmark's own taps on — handler timing on every node, blob
// store timing, one trace id per request whose spans are fetched from every
// node right after the reply — followed by direct library calls on the
// served inputs. Nothing here instruments the program itself.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/otrace"
	"repro/internal/serve"
	"repro/internal/workload"
)

type tracedRun struct {
	c                 *cluster
	wl                *workloadDef
	untraced, traced  phase
	before, after     promValues
	taps              map[string][]handled // by node name
	blobGets, blobPut []float64
	blobHits          int

	mu    sync.Mutex
	hook  time.Duration                 // client time spent fetching traces
	wires map[string][]otrace.WireTrace // by trace id, coordinator first
	errs  []error                       // trace fetch failures
}

func runTraced(c *cluster, wl *workloadDef, p *prepared, d time.Duration) *tracedRun {
	tr := &tracedRun{c: c, wl: wl, taps: map[string][]handled{}, wires: map[string][]otrace.WireTrace{}}
	runtime.GC()
	tr.untraced = measure(c, p, p.from, wl.clients, d/2, false, nil)
	next := tr.untraced.load.next
	if p.cycle {
		next = p.from
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	tr.before = scrape(hc, c)
	c.setTaps(true)
	tr.traced = measure(c, p, next, wl.clients, d-d/2, true, func(s *sample) { tr.collect(hc, s) })
	c.setTaps(false)
	tr.after = scrape(hc, c)
	for _, n := range c.nodes() {
		tr.taps[n.name] = n.tap.take()
	}
	tr.blobGets, tr.blobPut, tr.blobHits = c.blob.snapshot()
	return tr
}

func (tr *tracedRun) samples() []*sample {
	return append(append([]*sample(nil), tr.untraced.load.samples...), tr.traced.load.samples...)
}

// collect fetches the request's spans from every node that may hold them.
// The recorder keeps the newest 64 traces, so this runs right after each
// reply; its time is excluded from the traced throughput.
func (tr *tracedRun) collect(hc *http.Client, s *sample) {
	t0 := time.Now()
	defer func() {
		tr.mu.Lock()
		tr.hook += time.Since(t0)
		tr.mu.Unlock()
	}()
	if s.err != nil || s.trace == "" {
		return
	}
	nodes := []*node{tr.c.coord}
	if tr.wl.peers > 0 {
		nodes = tr.c.nodes()
	}
	var wires []otrace.WireTrace
	for _, n := range nodes {
		var wt otrace.WireTrace
		code, err := getJSON(hc, n.url+"/v1/trace/"+s.trace, &wt)
		switch {
		case code == http.StatusNotFound && n != tr.c.coord:
			continue // a peer this request's shards did not reach
		case err != nil:
			tr.mu.Lock()
			tr.errs = append(tr.errs, fmt.Errorf("trace %s from %s: %w", s.trace, n.name, err))
			tr.mu.Unlock()
			return
		}
		wires = append(wires, wt)
	}
	tr.mu.Lock()
	tr.wires[s.trace] = wires
	tr.mu.Unlock()
}

func getJSON(hc *http.Client, url string, v any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// promValues sums selected /metrics series over every node.
type promValues map[string]float64

var promSeries = []string{
	`servemodel_search_phase_seconds_sum{phase="search"}`,
	`servemodel_search_phase_seconds_count{phase="search"}`,
	`servemodel_fabric_steals_total`,
}

func scrape(hc *http.Client, c *cluster) promValues {
	out := promValues{}
	for _, n := range c.nodes() {
		resp, err := hc.Get(n.url + "/metrics")
		if err != nil {
			continue // reported as missing deltas, never as a result
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			for _, want := range promSeries {
				if name == want {
					if v, err := strconv.ParseFloat(val, 64); err == nil {
						out[name] += v
					}
				}
			}
		}
		resp.Body.Close()
	}
	return out
}

func (tr *tracedRun) delta(series string) float64 { return tr.after[series] - tr.before[series] }

// layerMetrics computes every per-layer metric. A layer the workload does
// not exercise reads 0.
func (tr *tracedRun) layerMetrics(rep *report, wl *workloadDef, p *prepared, out io.Writer) {
	for _, err := range tr.errs {
		rep.fail(err)
	}
	coord := map[string]handled{}
	for _, h := range tr.taps["coord"] {
		coord[h.reqID] = h
	}
	var traced []*sample
	for _, s := range tr.traced.load.samples {
		if s.ok() {
			traced = append(traced, s)
		}
	}

	// serve: handler vs client time, response size, admission wait.
	var handlerMS, transportMS, bytes, admitMS []float64
	handlerOf := map[*sample]time.Duration{}
	for _, s := range traced {
		h, ok := coord[s.reqID]
		if !ok {
			rep.fail(fmt.Errorf("no handler record for request %s", s.reqID))
			continue
		}
		if h.dur > s.lat {
			rep.fail(fmt.Errorf("request %s: handler time %v exceeds client time %v", s.reqID, h.dur, s.lat))
		}
		handlerOf[s] = h.dur
		handlerMS = append(handlerMS, ms(h.dur))
		transportMS = append(transportMS, ms(s.lat-h.dur))
		bytes = append(bytes, float64(s.bytes))
		for _, sp := range coordSpans(tr.wires[s.trace]) {
			if sp.Name == "admission.wait" {
				admitMS = append(admitMS, float64(sp.DurNS)/1e6)
			}
		}
	}
	rep.set("serve.handler_ms.p50", median(handlerMS), "ms")
	rep.set("serve.transport_ms.p50", median(transportMS), "ms")
	rep.set("serve.admission_wait_ms.p50", median(admitMS), "ms")
	rep.set("serve.response_bytes", median(bytes), "bytes")
	fmt.Fprintf(out, "# traced: %d requests, %d with handler records, %d with admission spans\n", len(traced), len(handlerMS), len(admitMS))

	// Direct library calls on the served inputs, for the serve overheads.
	d := tr.directCalls(wl, p, traced)
	for _, k := range []kind{kindEval, kindSearch, kindNetwork} {
		var over []float64
		for s, dur := range d.byKind[k] {
			if h, ok := handlerOf[s]; ok {
				over = append(over, us(h-dur))
			}
		}
		rep.set("serve.overhead_us."+k.String(), median(over), "us")
		fmt.Fprintf(out, "# serve overhead %s: %d paired samples\n", k, len(over))
	}

	// mapper: phase histogram deltas, direct searches, response stats.
	if n := tr.delta(promSeries[1]); n > 0 {
		rep.set("mapper.search_ms.mean", 1000*tr.delta(promSeries[0])/n, "ms")
	} else {
		rep.set("mapper.search_ms.mean", 0, "ms")
	}
	var best []float64
	for _, s := range tr.samples() {
		if s.direct > 0 {
			best = append(best, ms(s.direct))
		}
	}
	for _, e := range p.set {
		if e.reply.direct > 0 {
			best = append(best, ms(e.reply.direct))
		}
	}
	rep.set("mapper.best_ms.p50", median(best), "ms")
	// A memo hit replies with the stats saved from the search that filled
	// the entry, so response stats count only when searches ran in the
	// traced phase (memo misses); on mix_warm, all hits, they read 0.
	searchesRan := tr.traced.memo.misses > 0
	var gen, valid, merged, subtrees, pruned, nsearch float64
	var winners []*core.Problem
	for _, s := range traced {
		if s.search == nil {
			continue
		}
		if pb, err := winnerProblem(p.reqs[s.idx].search, s.search); err == nil {
			winners = append(winners, pb)
		}
		if st := s.search.Stats; st != nil && searchesRan {
			nsearch++
			gen += float64(st.NestsGenerated)
			valid += float64(st.Valid)
			merged += float64(st.ClassesMerged)
			subtrees += float64(st.SubtreesPruned)
			pruned += float64(st.Pruned)
		}
	}
	rep.set("mapper.nests_generated", ratio(gen, nsearch), "count")
	rep.set("mapper.valid", ratio(valid, nsearch), "count")
	rep.set("mapper.classes_merged", ratio(merged, nsearch), "count")
	rep.set("mapper.subtrees_pruned", ratio(subtrees, nsearch), "count")
	rep.set("mapper.pruned", ratio(pruned, nsearch), "count")
	rep.set("mapper.valid_ratio", ratio(valid, gen), "ratio")
	rep.set("mapper.prune_ratio", ratio(pruned, valid), "ratio")
	fmt.Fprintf(out, "# mapper: stats of %d searches, %d direct mapper.Best calls, %.0f search-phase observations\n", int(nsearch), len(best), tr.delta(promSeries[1]))

	// core and energy on the served winners.
	winners = dedupProblems(winners)
	rep.set("core.score_ns_per_problem", scoreBatchNS(winners), "ns")
	ce, ee := evaluateUS(winners)
	rep.set("core.evaluate_us", ce, "us")
	rep.set("energy.evaluate_us", ee, "us")
	fmt.Fprintf(out, "# core/energy: %d distinct served winners\n", len(winners))

	// memo: cache counters and the blob-store decorator.
	m := tr.traced.memo
	rep.set("memo.cache_hit_ratio", ratio(float64(m.hits), float64(m.hits+m.misses)), "ratio")
	rep.set("memo.cache_misses", float64(m.misses), "count")
	rep.set("memo.cache_waits", float64(m.waits), "count")
	rep.set("memo.blob_get_us.p50", median(tr.blobGets), "us")
	rep.set("memo.blob_put_us.p50", median(tr.blobPut), "us")
	rep.set("memo.blob_hit_ratio", ratio(float64(tr.blobHits), float64(len(tr.blobGets))), "ratio")
	fmt.Fprintf(out, "# memo: %d hits, %d misses, %d waits; blob store %d gets, %d puts\n", m.hits, m.misses, m.waits, len(tr.blobGets), len(tr.blobPut))

	// network: the direct warm evaluations and response builds.
	rep.set("network.evaluate_us.warm", median(d.netEval), "us")
	rep.set("network.build_response_us", median(d.netBuild), "us")
	rep.set("network.unique_searches", mean(d.netUnique), "count")
	fmt.Fprintf(out, "# network: %d direct evaluations\n", len(d.netEval))

	tr.fabricMetrics(rep, traced, out)

	u, t := len(tr.untraced.load.lats), len(tr.traced.load.lats)
	uRPS := float64(u) / tr.untraced.load.elapsed.Seconds()
	busy := tr.traced.load.elapsed - tr.hook/time.Duration(wl.clients)
	tRPS := float64(t) / busy.Seconds()
	rep.set("trace.overhead_pct", 100*ratio(uRPS-tRPS, uRPS), "%")
	fmt.Fprintf(out, "# trace overhead: untraced %.4g rps over %d requests, traced %.4g rps over %d requests (trace fetches excluded)\n",
		uRPS, u, tRPS, t)
}

// coordSpans returns the coordinator's spans of one request.
func coordSpans(wires []otrace.WireTrace) []otrace.WireSpan {
	for _, w := range wires {
		for _, sp := range w.Spans {
			if sp.Node == "coord" {
				return w.Spans
			}
		}
	}
	return nil
}

// directs holds the direct library calls made on traced inputs.
type directs struct {
	byKind            map[kind]map[*sample]time.Duration
	netEval, netBuild []float64 // µs
	netUnique         []float64
}

// directSamples bounds the direct calls per endpoint.
const directSamples = 64

// directCalls times the library call each sampled request's handler makes,
// in the memo state the handler saw: a cold search runs mapper.Best (the
// answer check already timed it), a sharded one fabric.Search over the
// same peers, warm ones go through the warm memo.
func (tr *tracedRun) directCalls(wl *workloadDef, p *prepared, traced []*sample) directs {
	d := directs{byKind: map[kind]map[*sample]time.Duration{kindEval: {}, kindSearch: {}, kindNetwork: {}}}
	ctx := context.Background()
	var peers []string
	for _, n := range tr.c.peers {
		peers = append(peers, n.url)
	}
	for _, s := range traced {
		req := p.reqs[s.idx]
		k := req.kind
		if len(d.byKind[k]) >= directSamples {
			continue
		}
		switch {
		case wl.name == "search_cold":
			if s.direct > 0 {
				d.byKind[k][s] = s.direct
			}
		case wl.name == "fabric_sharded":
			if len(d.byKind[k]) >= 4 {
				continue // each call is a whole sharded search
			}
			l, _ := req.search.Layer.ToLayer()
			hw, sp := presetArch(req.search.Arch)
			t0 := time.Now()
			_, _, err := fabric.Search(ctx, &l, hw, searchOptions(req.search, sp), &fabric.Options{
				Shards: req.search.Shards, Nodes: peers, ArchName: req.search.Arch,
			})
			if err == nil {
				d.byKind[k][s] = time.Since(t0)
			}
		case k == kindSearch:
			l, _ := req.search.Layer.ToLayer()
			hw, sp := presetArch(req.search.Arch)
			t0 := time.Now()
			if _, _, err := mapper.BestCached(ctx, &l, hw, searchOptions(req.search, sp)); err == nil {
				d.byKind[k][s] = time.Since(t0)
			}
		case k == kindEval:
			t0 := time.Now()
			pb, err := evalProblem(req.eval)
			if err == nil {
				_, err = core.Evaluate(pb)
			}
			if err == nil {
				_, err = energy.Evaluate(pb, nil)
			}
			if err == nil {
				d.byKind[k][s] = time.Since(t0)
			}
		case k == kindNetwork:
			nc, err := resolveNetwork(req.network)
			if err != nil {
				continue
			}
			t0 := time.Now()
			res, err := nc.evaluate()
			if err != nil {
				continue
			}
			t1 := time.Now()
			body, err := json.Marshal(nc.response(res))
			if err != nil || len(body) == 0 {
				continue
			}
			t2 := time.Now()
			d.byKind[k][s] = t2.Sub(t0)
			d.netEval = append(d.netEval, us(t1.Sub(t0)))
			d.netBuild = append(d.netBuild, us(t2.Sub(t1)))
			d.netUnique = append(d.netUnique, float64(uniqueSearches(nc.net.Layers)))
		}
	}
	return d
}

// uniqueSearches counts the distinct mapping searches a network needs: its
// matmul-shaped layers after lowering, heads stripped, deduplicated by
// workload.DedupLayers — what network.Evaluate hands to the memo.
func uniqueSearches(layers []workload.Layer) int {
	var mapped []workload.Layer
	for _, l := range layers {
		if l.Kind.Elementwise() {
			continue
		}
		low := workload.Im2Col(l)
		low.Heads = 0
		mapped = append(mapped, low)
	}
	u, _, _ := workload.DedupLayers(mapped)
	return len(u)
}

// winnerProblem rebuilds the core problem of a served search winner.
func winnerProblem(req *serve.SearchRequest, resp *serve.SearchResponse) (*core.Problem, error) {
	m := resp.Mapping
	ev := &serve.EvalRequest{Layer: req.Layer, Mapping: &m}
	ev.Arch = req.Arch
	return evalProblem(ev)
}

func dedupProblems(ps []*core.Problem) []*core.Problem {
	seen := map[string]bool{}
	var out []*core.Problem
	for _, p := range ps {
		k := p.Layer.ShapeKey() + "|" + p.Arch.Name + "|" + p.Mapping.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// scoreBatchNS times core.Evaluator.ScoreBatch over slabs of the winners
// (repeated to at least 256 problems) for at least 100 ms, per problem.
func scoreBatchNS(ps []*core.Problem) float64 {
	if len(ps) == 0 {
		return 0
	}
	var slab []*core.Problem
	for len(slab) < 256 {
		slab = append(slab, ps...)
	}
	out := make([]float64, len(slab))
	ev := core.NewEvaluator()
	if err := ev.ScoreBatch(slab, out); err != nil {
		return 0
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		_ = ev.ScoreBatch(slab, out) // the first pass above succeeded on the same slab
		n += len(slab)
	}
	return float64(time.Since(t0)) / float64(n)
}

// evaluateUS returns the median core.Evaluate and energy.Evaluate times
// over the winners, each timed five times.
func evaluateUS(ps []*core.Problem) (coreUS, energyUS float64) {
	var c, e []float64
	for _, p := range ps {
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := core.Evaluate(p); err != nil {
				break
			}
			t1 := time.Now()
			if _, err := energy.Evaluate(p, nil); err != nil {
				break
			}
			c = append(c, us(t1.Sub(t0)))
			e = append(e, us(time.Since(t1)))
		}
	}
	return median(c), median(e)
}

// fabricMetrics assembles each traced sharded search's spans from every
// node into the critical-path report, checks that its categories sum to the
// wall time exactly, and reads the shard RPCs off the peers' handler taps.
func (tr *tracedRun) fabricMetrics(rep *report, traced []*sample, out io.Writer) {
	names := []string{"plan", "queue", "walk", "steal", "memo", "network", "merge", "other"}
	sums := make([]float64, len(names))
	var wall float64
	var assembled int
	shardsByTrace := map[string][]float64{}
	var rpcMS []float64
	for _, n := range tr.c.peers {
		for _, h := range tr.taps[n.name] {
			if h.path == "/v1/shard" {
				shardsByTrace[h.trace] = append(shardsByTrace[h.trace], ms(h.dur))
				rpcMS = append(rpcMS, ms(h.dur))
			}
		}
	}
	var skews []float64
	var shardTotal, bestTotal float64
	for _, s := range traced {
		if tr.wl.peers == 0 {
			break
		}
		r, err := criticalPath(tr.wires[s.trace], s.span)
		if err != nil {
			rep.fail(fmt.Errorf("fabric trace %s: %w", s.trace, err))
			continue
		}
		cats := []int64{r.PlanNS, r.QueueNS, r.WalkNS, r.StealNS, r.MemoNS, r.NetworkNS, r.MergeNS, r.OtherNS}
		var sum int64
		for i, v := range cats {
			sum += v
			sums[i] += float64(v) / 1e6
		}
		if sum != r.WallNS || r.DiffNS != 0 {
			rep.fail(fmt.Errorf("fabric trace %s: categories sum to %d ns, wall %d ns", s.trace, sum, r.WallNS))
		}
		wall += float64(r.WallNS) / 1e6
		assembled++
		if sh := shardsByTrace[s.trace]; len(sh) > 0 {
			skews = append(skews, maxOf(sh)/mean(sh))
			if s.direct > 0 {
				shardTotal += mean(sh) * float64(len(sh))
				bestTotal += ms(s.direct)
			}
		}
	}
	for i, n := range names {
		rep.set("fabric."+n+"_ms", ratio(sums[i], float64(assembled)), "ms")
	}
	rep.set("fabric.wall_ms", ratio(wall, float64(assembled)), "ms")
	rep.set("fabric.shard_rpc_ms.p50", median(rpcMS), "ms")
	rep.set("fabric.shard_skew", mean(skews), "ratio")
	rep.set("fabric.work_ratio", ratio(shardTotal, bestTotal), "ratio")
	rep.set("fabric.steals_per_req", ratio(tr.delta(promSeries[2]), float64(len(traced))), "count")
	if tr.wl.peers > 0 {
		fmt.Fprintf(out, "# fabric: %d searches assembled across nodes (category sum == wall on each), %d shard RPCs\n", assembled, len(rpcMS))
	}
}

// criticalPath assembles one request's spans. The coordinator's serve
// span joined the client's trace, so its parent is the client span, which
// no node recorded; it is re-rooted to make it the wall-time root.
func criticalPath(wires []otrace.WireTrace, clientSpan string) (otrace.Report, error) {
	var ws []otrace.WireTrace
	for _, w := range wires {
		w.Spans = append([]otrace.WireSpan(nil), w.Spans...)
		for i := range w.Spans {
			if w.Spans[i].Parent == clientSpan {
				w.Spans[i].Parent = ""
			}
		}
		ws = append(ws, w)
	}
	a, err := otrace.Assemble("coord", ws)
	if err != nil {
		return otrace.Report{}, err
	}
	return a.Report, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
