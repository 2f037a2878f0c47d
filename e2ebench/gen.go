package main

// Request generation. Every workload's inputs are a pure function of the
// seed: the same seed yields byte-identical request bodies, and the nodes
// receive nothing but these bodies.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// Budgets: /v1/network's per-layer default, and the sharded budget large
// enough that the walk cap binds on every fabric layer.
const (
	coldBudget   = 6000
	fabricBudget = 20000
	fabricShards = 4
)

var (
	archNames  = []string{"inhouse", "casestudy", "rowstationary", "tpulike"}
	objectives = []string{"latency", "energy", "edp"}
)

// presetArch mirrors serve's preset resolution so the benchmark can
// re-derive answers through the library on exactly the served inputs.
func presetArch(name string) (*arch.Arch, loops.Nest) {
	switch name {
	case "casestudy":
		return arch.CaseStudy(), arch.CaseStudySpatial()
	case "rowstationary":
		return arch.RowStationary(), arch.RowStationarySpatial()
	case "tpulike":
		return arch.TPULike(), arch.TPULikeSpatial()
	}
	return arch.InHouse(), arch.InHouseSpatial()
}

func objectiveOf(name string) mapper.Objective {
	switch name {
	case "energy":
		return mapper.MinEnergy
	case "edp":
		return mapper.MinEDP
	}
	return mapper.MinLatency
}

type kind uint8

const (
	kindEval kind = iota
	kindSearch
	kindNetwork
)

var kindNames = [...]string{"eval", "search", "network"}

func (k kind) String() string { return kindNames[k] }

func (k kind) path() string { return "/v1/" + k.String() }

// request is one generated request: its wire body plus the typed form the
// correctness checks re-derive from.
type request struct {
	kind    kind
	body    []byte
	search  *serve.SearchRequest
	eval    *serve.EvalRequest
	network *serve.NetworkRequest
}

func newRequest(k kind, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal %T: %v", v, err)) // only plain structs are marshalled
	}
	r := request{kind: k, body: body}
	switch t := v.(type) {
	case *serve.SearchRequest:
		r.search = t
	case *serve.EvalRequest:
		r.eval = t
	case *serve.NetworkRequest:
		r.network = t
	}
	return r
}

// convLayers returns the unique mapped layers of the four bundled conv
// networks, named suite.layer.
func convLayers() []workload.Layer {
	suites := []struct {
		name   string
		layers []workload.Layer
	}{
		{"resnet18", workload.ResNet18Suite()},
		{"vgg16", workload.VGG16Suite()},
		{"mobilenetv2", workload.MobileNetV2Suite()},
		{"handtracking", workload.HandTrackingSuite()},
	}
	var all []workload.Layer
	for _, s := range suites {
		for _, l := range s.layers {
			if !l.Kind.Elementwise() {
				l.Name = s.name + "." + l.Name
				all = append(all, l)
			}
		}
	}
	u, _, _ := workload.DedupLayers(all)
	return u
}

// transformerSpecs are the blocks the benchmark draws transformer work
// from: tiny and gpt2, prefill over several prompt lengths and decode over
// several KV-cache lengths.
func transformerSpecs() []transformer.Spec {
	var out []transformer.Spec
	for _, p := range []string{"tiny", "gpt2"} {
		for _, s := range []int64{16, 32, 64, 128, 256} {
			out = append(out, transformer.Spec{Preset: p, Mode: "prefill", SeqLen: s})
		}
		for _, kv := range []int64{128, 256, 512, 1024} {
			out = append(out, transformer.Spec{Preset: p, Mode: "decode", KVLen: kv})
		}
	}
	return out
}

// transformerLayers returns the unique matmul-shaped ops (projections, FFN
// and head-batched attention) of every transformer spec.
func transformerLayers() []workload.Layer {
	var all []workload.Layer
	for _, sp := range transformerSpecs() {
		blk, _, err := sp.Build()
		if err != nil {
			panic(fmt.Sprintf("transformer spec %+v: %v", sp, err)) // fixed specs, validated by the tests
		}
		for _, op := range blk.Ops {
			if op.Layer.Kind.MatmulShaped() {
				l := op.Layer
				l.Name = blk.NetName(1) + "." + op.Name
				all = append(all, l)
			}
		}
	}
	u, _, _ := workload.DedupLayers(all)
	return u
}

// search is one (layer, arch, objective) search problem.
type search struct {
	layer     workload.Layer
	arch, obj string
}

// infeasible lists the (layer, arch) and (network, arch) pairs for which
// some generated search found no valid mapping within its walk budget,
// which the server answers with 422. All are on tpulike. The generator
// skips them so that the workloads measure searches that find a mapping.
// The list only shapes the workloads: a 422 on any other pair is accepted
// as an answer when the library fails on the same input with the same
// message (sameFailure), and an entry that became feasible only narrows
// the problem set.
var infeasible = map[string]bool{
	"hand-tracking/tpulike":                  true,
	"resnet18/tpulike":                       true,
	"gpt2-prefill-seq64/tpulike":             true,
	"resnet18.conv4_1/tpulike":               true,
	"vgg16.conv4_1/tpulike":                  true,
	"gpt2-prefill-seq64.ffn_down/tpulike":    true,
	"tiny-prefill-seq256.attn_score/tpulike": true,
	"mobilenetv2.b3b_dw/tpulike":             true,
	"mobilenetv2.b2a_proj/tpulike":           true,
	"resnet18.conv4_2/tpulike":               true,
}

// problems returns every feasible (layer, arch, objective) search of the
// given layers and objectives, in a shuffled order fixed by rng. The
// shuffle runs before the infeasible pairs are dropped, so dropping one
// keeps every other problem's place.
func problems(rng *rand.Rand, layers []workload.Layer, objs []string) []search {
	var all []search
	for _, l := range layers {
		for _, a := range archNames {
			for _, o := range objs {
				all = append(all, search{l, a, o})
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := all[:0]
	for _, p := range all {
		if !infeasible[p.layer.Name+"/"+p.arch] {
			out = append(out, p)
		}
	}
	return out
}

// basketSeed fixes which problems form a cold workload's basket. It is a
// constant, not the run's seed: every seed then measures the same
// population of problems, which keeps the run-to-run spread of a short run
// small despite search costs that span three orders of magnitude.
const basketSeed = 1

// basket picks perCombo problems for every arch x objective pair from a
// fixed shuffle, plus warm latency problems outside the basket for the
// process warm-up (latency searches cost the least and the most evenly).
func basket(layers []workload.Layer, objs []string, perCombo, warm int) (items, warmup []search) {
	count := map[string]int{}
	for _, p := range problems(rand.New(rand.NewSource(basketSeed)), layers, objs) {
		k := p.arch + "/" + p.obj
		switch {
		case count[k] < perCombo:
			count[k]++
			items = append(items, p)
		case len(warmup) < warm && p.obj == "latency":
			warmup = append(warmup, p)
		}
	}
	return items, warmup
}

// precisions are the operand widths (weights, inputs, outputs) a cold
// stream cycles its basket through: int4/int8 operands with 16 to 32 bit
// accumulators, the precision axis a DSE sweep explores. Precision is part
// of the memo key, so the same shape at another precision is a distinct,
// cold search of similar cost. A stream holds one cycle per precision.
var precisions = []workload.Precision{
	{W: 8, I: 8, O: 24}, {W: 8, I: 8, O: 32}, {W: 8, I: 8, O: 16}, {W: 4, I: 8, O: 24},
	{W: 8, I: 8, O: 20}, {W: 4, I: 8, O: 32}, {W: 4, I: 8, O: 16}, {W: 8, I: 8, O: 28},
	{W: 4, I: 8, O: 20}, {W: 4, I: 8, O: 28}, {W: 4, I: 4, O: 16}, {W: 4, I: 4, O: 24},
	{W: 4, I: 4, O: 20}, {W: 4, I: 4, O: 28}, {W: 4, I: 4, O: 32}, {W: 8, I: 4, O: 16},
	{W: 8, I: 4, O: 24}, {W: 8, I: 4, O: 32},
}

func searchRequest(p search, prec workload.Precision, budget, shards int) request {
	l := p.layer
	l.Precision = prec
	req := &serve.SearchRequest{
		Layer:     config.FromLayer(&l),
		Budget:    budget,
		Objective: p.obj,
		Shards:    shards,
	}
	req.Arch = p.arch
	return newRequest(kindSearch, req)
}

// coldStream is a cold workload's request list: the warm-up problems, then
// one cycle of the basket per precision. In cycle c, basket problem i runs
// at precisions[(i+c) mod len]: each cycle mixes every precision, so cycles
// cost about the same, and each problem meets a new precision every cycle,
// so every request is a distinct memo key. The seed draws each cycle's
// order; the first k cycles hold the same requests for every seed.
func coldStream(seed int64, items, warmup []search, budget, shards int) []request {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	for _, p := range warmup {
		out = append(out, searchRequest(p, workload.DefaultPrecision, budget, shards))
	}
	for c := range precisions {
		for _, i := range rng.Perm(len(items)) {
			out = append(out, searchRequest(items[i], precisions[(i+c)%len(precisions)], budget, shards))
		}
	}
	return out
}

// Cold workload shapes: baskets per arch x objective pair and warm-ups.
const (
	coldPerCombo   = 4 // 48 problems per cycle
	fabricPerCombo = 6 // 24 sharded problems per cycle
	coldWarmup     = 8
	fabricWarmup   = 4
)

// coldSearches is search_cold's stream over the conv layers and the
// transformer matmuls.
func coldSearches(seed int64) (reqs []request, cycle int) {
	items, warmup := basket(append(convLayers(), transformerLayers()...), objectives, coldPerCombo, coldWarmup)
	return coldStream(seed, items, warmup, coldBudget, 0), len(items)
}

// fabricSearches is fabric_sharded's stream: sharded latency searches over
// the convolutions (the dense classifiers and transformer matmuls are
// mostly too small for the 20000 cap to bind). Latency is the default
// objective and the one whose searches the walk budget, not the
// generator, bounds.
func fabricSearches(seed int64) (reqs []request, cycle int) {
	var convs []workload.Layer
	for _, l := range convLayers() {
		if l.Kind != workload.Dense {
			convs = append(convs, l)
		}
	}
	items, warmup := basket(convs, objectives[:1], fabricPerCombo, fabricWarmup)
	return coldStream(seed, items, warmup, fabricBudget, fabricShards), len(items)
}

// mixPlan is mix_warm's working set and its seeded request sequence.
type mixPlan struct {
	searches []request // the repeat searches, pre-warmed by set-up
	networks []request // conv nets and transformer blocks, pre-warmed
	picks    []pick    // the timed sequence, cycled
}

// pick selects one working-set entry; evals take the i-th search's winner.
type pick struct {
	kind kind
	i    int
}

const (
	mixSearches = 32
	mixPicks    = 4096
)

// mixWarm builds mix_warm's plan. The working set is fixed, like a cold
// basket, so every seed measures the same population: 32 latency searches
// drawn from every conv layer and transformer matmul on every arch
// (latency keeps set-up short; a warm hit costs the same for any
// objective), the four bundled conv nets and four transformer blocks
// (tiny/gpt2, prefill and decode) on drawn archs. The timed sequence holds
// one quarter each of the four request classes — eval, repeat search, conv
// net and transformer block — and every entry of a class equally often; no
// measured traffic fixes the split, so every class gets the same share.
// The seed draws only the order, so every seed sends the same multiset of
// requests and a run's figures do not depend on how its draw fell.
func mixWarm(seed int64) *mixPlan {
	p := &mixPlan{}
	rng := rand.New(rand.NewSource(basketSeed))
	for _, pb := range problems(rng, append(convLayers(), transformerLayers()...), objectives[:1])[:mixSearches] {
		p.searches = append(p.searches, searchRequest(pb, workload.DefaultPrecision, coldBudget, 0))
	}
	// network places a network on a seeded arch its layers all map onto.
	network := func(req *serve.NetworkRequest) {
		net, err := requestedNetwork(req)
		if err != nil {
			panic(fmt.Sprintf("network %+v: %v", req, err)) // fixed names and specs, validated by the tests
		}
		var feasible []string
		for _, a := range archNames {
			if !infeasible[net.Name+"/"+a] {
				feasible = append(feasible, a)
			}
		}
		req.Arch = feasible[rng.Intn(len(feasible))]
		p.networks = append(p.networks, newRequest(kindNetwork, req))
	}
	for _, net := range []string{"handtracking", "resnet18", "vgg16", "mobilenetv2"} {
		network(&serve.NetworkRequest{Net: net})
	}
	specs := transformerSpecs()
	for _, preset := range []string{"tiny", "gpt2"} {
		for _, mode := range []string{"prefill", "decode"} {
			var cands []transformer.Spec
			for _, s := range specs {
				if s.Preset == preset && s.Mode == mode {
					cands = append(cands, s)
				}
			}
			sp := cands[rng.Intn(len(cands))]
			network(&serve.NetworkRequest{Transformer: &sp})
		}
	}
	p.picks = make([]pick, mixPicks)
	for i := range p.picks {
		j := i / 4
		switch i % 4 {
		case 0:
			p.picks[i] = pick{kindEval, j % len(p.searches)}
		case 1:
			p.picks[i] = pick{kindSearch, j % len(p.searches)}
		case 2:
			p.picks[i] = pick{kindNetwork, j % 4}
		default:
			p.picks[i] = pick{kindNetwork, 4 + j%4}
		}
	}
	rng = rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.picks), func(i, j int) { p.picks[i], p.picks[j] = p.picks[j], p.picks[i] })
	return p
}

// evalFor builds the /v1/eval request pricing a search's served winner.
func evalFor(s *serve.SearchRequest, resp *serve.SearchResponse) request {
	m := resp.Mapping
	req := &serve.EvalRequest{Layer: s.Layer, Mapping: &m}
	req.Arch = s.Arch
	return newRequest(kindEval, req)
}

// sequence resolves the picks into the timed request list, given the eval
// request of every search.
func (p *mixPlan) sequence(evals []request) []request {
	out := make([]request, len(p.picks))
	for i, pk := range p.picks {
		switch pk.kind {
		case kindEval:
			out[i] = evals[pk.i]
		case kindSearch:
			out[i] = p.searches[pk.i]
		default:
			out[i] = p.networks[pk.i]
		}
	}
	return out
}

// requestedNetwork mirrors serve's network resolution for re-derivation.
func requestedNetwork(req *serve.NetworkRequest) (*network.Network, error) {
	if req.Transformer != nil {
		_, net, err := req.Transformer.Build()
		return net, err
	}
	switch req.Net {
	case "handtracking":
		return network.HandTracking(), nil
	case "resnet18":
		return &network.Network{Name: "resnet18", Layers: workload.ResNet18Suite()}, nil
	case "vgg16":
		return &network.Network{Name: "vgg16", Layers: workload.VGG16Suite()}, nil
	case "mobilenetv2":
		return &network.Network{Name: "mobilenetv2", Layers: workload.MobileNetV2Suite()}, nil
	}
	return nil, fmt.Errorf("unknown net %q", req.Net)
}
