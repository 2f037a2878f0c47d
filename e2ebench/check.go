package main

// Output checks. Every reply was already decoded strictly by the client;
// here answers are re-derived through the library, outside the timed
// window, on exactly the served inputs.

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/network"
	"repro/internal/serve"
)

// bestDirect runs the unsharded, uncached search the request describes and
// returns its winner and wall time. mapper.Best never consults the memo.
func bestDirect(req *serve.SearchRequest) (*mapper.Candidate, time.Duration, error) {
	l, err := req.Layer.ToLayer()
	if err != nil {
		return nil, 0, err
	}
	hw, sp := presetArch(req.Arch)
	t0 := time.Now()
	cand, _, err := mapper.Best(context.Background(), &l, hw, searchOptions(req, sp))
	return cand, time.Since(t0), err
}

// searchOptions mirrors the options /v1/search builds from a request.
func searchOptions(req *serve.SearchRequest, sp loops.Nest) *mapper.Options {
	return &mapper.Options{Spatial: sp, MaxCandidates: req.Budget, Objective: objectiveOf(req.Objective), BWAware: true}
}

// sameFailure accepts a served 422 only when the library, given the same
// input, fails with exactly the message the server sent: a search that
// legitimately finds no valid mapping is an answer, not a failed request.
func sameFailure(what, served string, err error) error {
	switch {
	case err == nil:
		return fmt.Errorf("%s: served 422 %q, the library found an answer", what, served)
	case err.Error() != served:
		return fmt.Errorf("%s: served 422 %q, the library failed with %q", what, served, err)
	}
	return nil
}

// checkSearch compares a served search answer with the direct search: the
// winning temporal nest, the full mapping and cc_total must match exactly,
// or both must find no valid mapping. It returns the direct search's wall
// time.
func checkSearch(req *serve.SearchRequest, s *sample) (time.Duration, error) {
	cand, d, err := bestDirect(req)
	if s.noMapping != "" {
		return d, sameFailure("search "+req.Layer.Name+" on "+req.Arch, s.noMapping, err)
	}
	if err != nil {
		return d, fmt.Errorf("re-derive search %s: %w", req.Layer.Name, err)
	}
	want, got := config.FromMapping(cand.Mapping), s.search
	switch {
	case got.Temporal != cand.Mapping.Temporal.String():
		return d, fmt.Errorf("search %s on %s: temporal %q, library %q", req.Layer.Name, req.Arch, got.Temporal, cand.Mapping.Temporal.String())
	case got.Result.CCTotal != cand.Result.CCTotal:
		return d, fmt.Errorf("search %s on %s: cc_total %v, library %v", req.Layer.Name, req.Arch, got.Result.CCTotal, cand.Result.CCTotal)
	case got.EnergyPJ != cand.EnergyPJ || !reflect.DeepEqual(got.Mapping, want):
		return d, fmt.Errorf("search %s on %s: mapping or energy differs from the library's", req.Layer.Name, req.Arch)
	}
	return d, nil
}

// evalProblem rebuilds the core problem an eval request prices.
func evalProblem(req *serve.EvalRequest) (*core.Problem, error) {
	l, err := req.Layer.ToLayer()
	if err != nil {
		return nil, err
	}
	hw, _ := presetArch(req.Arch)
	m, err := req.Mapping.ToMapping()
	if err != nil {
		return nil, err
	}
	return &core.Problem{Layer: &l, Arch: hw, Mapping: m}, nil
}

// checkEval re-prices the mapping with core.Evaluate and energy.Evaluate.
func checkEval(req *serve.EvalRequest, s *sample) error {
	p, err := evalProblem(req)
	if err != nil {
		return err
	}
	got := s.eval
	if got == nil {
		return fmt.Errorf("eval %s on %s: served 422 %q for a served winner", req.Layer.Name, req.Arch, s.noMapping)
	}
	res, err := core.Evaluate(p)
	if err != nil {
		return err
	}
	eb, err := energy.Evaluate(p, nil)
	if err != nil {
		return err
	}
	if got.Temporal != p.Mapping.Temporal.String() || got.Result.CCTotal != res.CCTotal || got.EnergyPJ != eb.TotalPJ {
		return fmt.Errorf("eval %s on %s: served cc_total %v energy %v, library %v %v",
			req.Layer.Name, req.Arch, got.Result.CCTotal, got.EnergyPJ, res.CCTotal, eb.TotalPJ)
	}
	return nil
}

// networkCall is a /v1/network request resolved to its library inputs, as
// the handler resolves it.
type networkCall struct {
	net *network.Network
	hw  *arch.Arch
	sp  loops.Nest
	opt *network.Options
}

func resolveNetwork(req *serve.NetworkRequest) (*networkCall, error) {
	net, err := requestedNetwork(req)
	if err != nil {
		return nil, err
	}
	hw, sp := presetArch(req.Arch)
	return &networkCall{net, hw, sp, &network.Options{MaxCandidates: req.Budget, Objective: objectiveOf(req.Objective)}}, nil
}

// evaluate is the handler's network.Evaluate step.
func (c *networkCall) evaluate() (*network.Result, error) {
	return network.Evaluate(context.Background(), c.net, c.hw, c.sp, c.opt)
}

// response is the handler's serve.BuildNetworkResponse step.
func (c *networkCall) response(res *network.Result) serve.NetworkResponse {
	return serve.BuildNetworkResponse(c.net, c.hw, res)
}

// checkNetwork re-derives a network answer with the memo cache and the
// blob store detached, so every per-layer search runs afresh, and compares
// the whole response — every layer's temporal nest and cc_total included —
// or, for a served 422, the library's failure.
func checkNetwork(req *serve.NetworkRequest, s *sample) error {
	store := mapper.BlobStore()
	memo.Default.SetEnabled(false)
	mapper.SetBlobStore(nil)
	defer func() {
		memo.Default.SetEnabled(true)
		mapper.SetBlobStore(store)
	}()
	c, err := resolveNetwork(req)
	if err != nil {
		return fmt.Errorf("re-derive network: %w", err)
	}
	res, err := c.evaluate()
	if s.noMapping != "" {
		return sameFailure("network "+c.net.Name+" on "+req.Arch, s.noMapping, err)
	}
	if err != nil {
		return fmt.Errorf("re-derive network: %w", err)
	}
	if want := c.response(res); !reflect.DeepEqual(&want, s.network) {
		return fmt.Errorf("network %s on %s: served response differs from the library's", c.net.Name, req.Arch)
	}
	return nil
}
