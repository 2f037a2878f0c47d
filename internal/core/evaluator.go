package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/periodic"
)

// Evaluator runs repeated model evaluations while reusing every internal
// buffer: the endpoint slab of Step 1, the port-grouping and window scratch
// of Step 2 and the integration scratch of Step 3. A zero Evaluator is
// ready to use; it is NOT safe for concurrent use — give each goroutine its
// own (the mapper's worker pool does exactly that).
//
// Results returned by an Evaluator alias its internal buffers (the
// Endpoints in particular) and are overwritten by the next call on the same
// Evaluator. Use the package-level Evaluate, which runs a throwaway
// Evaluator, when the result must outlive later evaluations.
type Evaluator struct {
	// Resolved memory chains, cached per architecture (pointer identity).
	chainArch *arch.Arch
	chains    [loops.NumOperands][]*arch.Memory

	epStore []Endpoint  // value slab backing eps; never reallocated mid-build
	eps     []*Endpoint // Step-1 output

	groups   []portGroup    // Step-2 per-physical-port grouping
	gidx     []int          // endpoint -> group index scratch
	gepStore []*Endpoint    // shared backing for the groups' endpoint lists
	mems     []memEntry     // Step-3 per-memory reduction
	rigid    []rigidEntry   // rigid-stall accumulation scratch
	busy     []portBusyCC   // preload shared-port serialization scratch
	sc       combineScratch // Eq. (1)/(2) scratch

	opc opCache      // Step-1 sub-result memo tables (opcache.go)
	cc  combineCache // Step-2 port-combination memo table (combinecache.go)
}

// NewEvaluator returns an empty evaluator (equivalent to new(Evaluator)).
func NewEvaluator() *Evaluator { return &Evaluator{} }

// portGroup is the Step-2 grouping of DTL endpoints by physical port.
type portGroup struct {
	mem  string
	port int
	n    int // member count (first grouping pass)
	eps  []*Endpoint

	ss    float64
	muw   float64
	exact bool
}

// memEntry is one memory module's reduced stall (max over its ports).
type memEntry struct {
	name string
	ss   float64
}

// rigidEntry accumulates the per-unit-memory keep-out stalls, one max per
// link kind (indexed by LinkKind).
type rigidEntry struct {
	op    loops.Operand
	level int
	kind  [3]float64
}

// portBusyCC accumulates preload hop time per shared physical port.
type portBusyCC struct {
	mem  string
	port int
	cc   float64
}

// chainMems resolves operand op's memory chain, caching the resolution per
// architecture pointer (chains are static once an Arch is normalized).
func (ev *Evaluator) chainMems(a *arch.Arch, op loops.Operand) []*arch.Memory {
	if ev.chainArch != a {
		ev.chainArch = a
		for _, o := range loops.AllOperands {
			ev.chains[o] = a.ChainMems(o)
		}
	}
	return ev.chains[op]
}

// Evaluate runs the full 3-step latency model with diagnostics, like the
// package-level Evaluate, but reuses this evaluator's scratch. See the type
// comment for the aliasing contract.
func (ev *Evaluator) Evaluate(p *Problem) (*Result, error) {
	if p.Layer == nil || p.Arch == nil || p.Mapping == nil {
		return nil, fmt.Errorf("core: nil problem component")
	}
	eps, err := ev.buildEndpoints(p)
	if err != nil {
		return nil, err
	}
	ssRaw := ev.ssRaw(p, eps)
	ss := ssRaw
	if ss < 0 {
		ss = 0
	}

	ccIdeal := float64(p.Layer.TotalMACs()) / float64(p.Arch.MACs)
	ccSpatial := p.Mapping.CCSpatial()
	pre := ev.preloadCycles(p)
	post := ev.offloadCycles(p)

	r := &Result{
		CCIdeal:      ccIdeal,
		CCSpatial:    ccSpatial,
		SpatialStall: float64(ccSpatial) - ccIdeal,
		SSOverall:    ss,
		Preload:      pre,
		Offload:      post,
		CCTotal:      float64(ccSpatial) + ss + pre + post,
		Endpoints:    eps,
		Ports:        ev.portStalls(p),
		SSRaw:        ssRaw,
	}
	r.Memories = memStalls(r.Ports)
	r.Utilization = ccIdeal / r.CCTotal
	r.SpatialUtilization = ccIdeal / float64(ccSpatial)
	r.TemporalUtilization = float64(ccSpatial) / (float64(ccSpatial) + ss)

	spatialFull := float64(ccSpatial) <= ccIdeal+0.5
	temporalFull := ss <= 0
	switch {
	case spatialFull && temporalFull:
		r.Scenario = Scenario1
	case temporalFull:
		r.Scenario = Scenario2
	case spatialFull:
		r.Scenario = Scenario3
	default:
		r.Scenario = Scenario4
	}
	return r, nil
}

// ScoreLatency computes Evaluate(p).CCTotal — the full bandwidth-aware
// model — without materializing the Result or any diagnostic structure, and
// without a single heap allocation once the evaluator's scratch is warm.
// The returned value is bit-identical to Evaluate(p).CCTotal: both paths
// run the same Step 1-3 arithmetic in the same order. This is the mapper's
// hot path.
func (ev *Evaluator) ScoreLatency(p *Problem) (float64, error) {
	eps, err := ev.buildEndpoints(p)
	if err != nil {
		return 0, err
	}
	return ev.ScoreEndpoints(p, eps), nil
}

// Endpoints runs Step 1 alone on the evaluator's scratch and warm Step-1
// memo: the DTL endpoints of p, the same set the package-level Endpoints
// returns, but aliasing the evaluator (see the type comment). A caller that
// needs the endpoints for something else — energy pricing — builds them once
// here and, only if it still wants the latency, finishes with
// ScoreEndpoints.
func (ev *Evaluator) Endpoints(p *Problem) ([]*Endpoint, error) {
	if p == nil || p.Layer == nil || p.Arch == nil || p.Mapping == nil {
		return nil, fmt.Errorf("core: nil problem component")
	}
	return ev.buildEndpoints(p)
}

// ScoreEndpoints runs Steps 2 and 3 on eps, which ev.Endpoints must have
// just built for the same p, and returns ScoreLatency(p) bit for bit: it is
// the second half of ScoreLatency, whose port combinations hit the
// evaluator's warm combineCache.
func (ev *Evaluator) ScoreEndpoints(p *Problem, eps []*Endpoint) float64 {
	ss := ev.ssRaw(p, eps)
	if ss < 0 {
		ss = 0
	}
	ccSpatial := p.Mapping.CCSpatial()
	pre := ev.preloadCycles(p)
	post := ev.offloadCycles(p)
	return float64(ccSpatial) + ss + pre + post
}

// LowerBound returns a cheap admissible lower bound on Evaluate(p).CCTotal:
// the bandwidth-UNAWARE total CC_spatial + preload + offload. Because the
// full model only ever adds a non-negative temporal stall SS_overall on top
// of these terms, the bound can never exceed the bandwidth-aware result —
// which is what makes it a sound branch-and-bound prune for latency-
// objective mapping searches. For the bandwidth-unaware model the bound IS
// the result (bit-identical to EvaluateBWUnaware(p).CCTotal).
func (ev *Evaluator) LowerBound(p *Problem) float64 {
	pre := ev.preloadCycles(p)
	post := ev.offloadCycles(p)
	return float64(p.Mapping.CCSpatial()) + pre + post
}

// LowerBound is the convenience form of Evaluator.LowerBound.
func LowerBound(p *Problem) float64 {
	var ev Evaluator
	return ev.LowerBound(p)
}

// ssRaw runs Steps 2 and 3 on the endpoint set: group by physical port,
// combine per port (Eq. 1/2 with the capacity bound), reduce per memory
// module, integrate across modules, and apply the rigid-stall accumulation.
// Returns the pre-clamp stall/slack.
func (ev *Evaluator) ssRaw(p *Problem, eps []*Endpoint) float64 {
	opts := p.opts()
	ev.groupPorts(eps)
	for i := range ev.groups {
		g := &ev.groups[i]
		g.ss, g.muw, g.exact = ev.combineCached(g.eps, opts)
	}
	ev.reduceMems()
	ssRaw := integrateValues(ev.mems, p.Arch.Combine)
	if !opts.NoRigidAccumulation {
		if rigid := ev.rigidTotal(eps); rigid > ssRaw {
			ssRaw = rigid
		}
	}
	return ssRaw
}

// groupPorts buckets endpoints by (memory, port index) into ev.groups, then
// orders the groups canonically (memory name, then port index) so that all
// downstream float reductions happen in a deterministic order.
func (ev *Evaluator) groupPorts(eps []*Endpoint) {
	// Pass 1: discover groups and count members, remembering each
	// endpoint's group so pass 2 need not search again.
	ev.groups = ev.groups[:0]
	ev.gidx = ev.gidx[:0]
	for _, e := range eps {
		gi := -1
		for i := range ev.groups {
			if ev.groups[i].mem == e.MemName && ev.groups[i].port == e.PortIdx {
				gi = i
				break
			}
		}
		if gi < 0 {
			ev.groups = append(ev.groups, portGroup{mem: e.MemName, port: e.PortIdx})
			gi = len(ev.groups) - 1
		}
		ev.groups[gi].n++
		ev.gidx = append(ev.gidx, gi)
	}
	// Carve every group's endpoint list out of one shared slab, then fill.
	if cap(ev.gepStore) < len(eps) {
		ev.gepStore = make([]*Endpoint, len(eps))
	}
	slab := ev.gepStore[:len(eps)]
	off := 0
	for i := range ev.groups {
		g := &ev.groups[i]
		g.eps = slab[off : off : off+g.n]
		off += g.n
	}
	for k, e := range eps {
		g := &ev.groups[ev.gidx[k]]
		g.eps = append(g.eps, e)
	}
	// Insertion sort: the group count is tiny and this avoids any closure
	// or interface allocation in the hot path.
	for i := 1; i < len(ev.groups); i++ {
		for j := i; j > 0 && (ev.groups[j].mem < ev.groups[j-1].mem ||
			(ev.groups[j].mem == ev.groups[j-1].mem && ev.groups[j].port < ev.groups[j-1].port)); j-- {
			ev.groups[j], ev.groups[j-1] = ev.groups[j-1], ev.groups[j]
		}
	}
}

// reduceMems folds the sorted port groups into one entry per memory module
// (ports within a module operate concurrently: max). Groups of one module
// are adjacent after groupPorts' canonical sort.
func (ev *Evaluator) reduceMems() {
	ev.mems = ev.mems[:0]
	for i := range ev.groups {
		g := &ev.groups[i]
		if n := len(ev.mems); n > 0 && ev.mems[n-1].name == g.mem {
			if g.ss > ev.mems[n-1].ss {
				ev.mems[n-1].ss = g.ss
			}
			continue
		}
		ev.mems = append(ev.mems, memEntry{name: g.mem, ss: g.ss})
	}
}

// rigidTotal accumulates the structural stalls of keep-out-window links —
// the allocation-free, deterministically ordered equivalent of the
// map-based formulation described in DESIGN.md §5: per unit memory, take
// the max SS_u per link kind, then the max across kinds; unit memories
// accumulate by sum because their freezes occupy disjoint period
// boundaries.
func (ev *Evaluator) rigidTotal(eps []*Endpoint) float64 {
	ev.rigid = ev.rigid[:0]
	for _, e := range eps {
		if e.XReq >= e.MemCC || e.SSu <= 0 {
			continue
		}
		var ent *rigidEntry
		for i := range ev.rigid {
			if ev.rigid[i].op == e.Operand && ev.rigid[i].level == e.Level {
				ent = &ev.rigid[i]
				break
			}
		}
		if ent == nil {
			ev.rigid = append(ev.rigid, rigidEntry{op: e.Operand, level: e.Level})
			ent = &ev.rigid[len(ev.rigid)-1]
		}
		if e.SSu > ent.kind[e.Kind] {
			ent.kind[e.Kind] = e.SSu
		}
	}
	var total float64
	for i := range ev.rigid {
		unit := 0.0
		for _, v := range ev.rigid[i].kind {
			if v > unit {
				unit = v
			}
		}
		total += unit
	}
	return total
}

// integrateValues implements Step 3 over the per-memory stalls: concurrent
// memories hide each other's stalls (max); sequential memories accumulate
// (sum of the positive stalls, or the least slack when none stalls).
func integrateValues(mems []memEntry, mode arch.StallCombine) float64 {
	if len(mems) == 0 {
		return 0
	}
	if mode == arch.Sequential {
		var sum float64
		stalled := false
		for i := range mems {
			if mems[i].ss > 0 {
				sum += mems[i].ss
				stalled = true
			}
		}
		if stalled {
			return sum
		}
	}
	best := mems[0].ss
	for i := 1; i < len(mems); i++ {
		if mems[i].ss > best {
			best = mems[i].ss
		}
	}
	return best
}

// portStalls materializes the Step-2 diagnostics from the evaluator's
// groups (already combined by ssRaw). The PortStall structs are freshly
// allocated — they are returned to the caller inside the Result — but their
// Endpoints alias the evaluator's endpoint slab.
func (ev *Evaluator) portStalls(p *Problem) []*PortStall {
	prec := p.Layer.Precision
	out := make([]*PortStall, len(ev.groups))
	store := make([]PortStall, len(ev.groups))
	nEps := 0
	for i := range ev.groups {
		nEps += len(ev.groups[i].eps)
	}
	epBack := make([]*Endpoint, 0, nEps) // one backing array for all copies
	for i := range ev.groups {
		g := &ev.groups[i]
		mem := p.Arch.MemoryByName(g.mem)
		start := len(epBack)
		epBack = append(epBack, g.eps...)
		ps := &store[i]
		*ps = PortStall{
			MemName:    g.mem,
			PortIdx:    g.port,
			PortName:   mem.Ports[g.port].Name,
			Endpoints:  epBack[start:len(epBack):len(epBack)],
			RealBWBits: mem.Ports[g.port].BWBits,
			MUWComb:    g.muw,
			MUWExact:   g.exact,
			SSComb:     g.ss,
		}
		for _, e := range g.eps {
			if e.Access.Write {
				ps.ReqBWWriteBits += e.ReqBWBits(prec)
			} else {
				ps.ReqBWReadBits += e.ReqBWBits(prec)
			}
		}
		out[i] = ps
	}
	return out
}

// memStalls groups the port diagnostics by memory module, mirroring
// reduceMems (ports of one module are adjacent in the canonical order).
func memStalls(ports []*PortStall) []*MemStall {
	if len(ports) == 0 {
		return nil
	}
	n := 1
	for i := 1; i < len(ports); i++ {
		if ports[i].MemName != ports[i-1].MemName {
			n++
		}
	}
	store := make([]MemStall, 0, n)
	out := make([]*MemStall, 0, n)
	start := 0
	for i := 1; i <= len(ports); i++ {
		if i < len(ports) && ports[i].MemName == ports[start].MemName {
			continue
		}
		ss := ports[start].SSComb
		for _, ps := range ports[start+1 : i] {
			if ps.SSComb > ss {
				ss = ps.SSComb
			}
		}
		// Ports subslices the caller-owned ports list (same Result).
		store = append(store, MemStall{MemName: ports[start].MemName, Ports: ports[start:i:i], SS: ss})
		out = append(out, &store[len(store)-1])
		start = i
	}
	return out
}

// preloadOps: the operands whose first tiles ripple down during the
// pre-loading phase (outputs have nothing to load).
var preloadOps = [2]loops.Operand{loops.W, loops.I}

// preloadCycles estimates the data pre-loading phase (Fig. 1(a)): the first
// W and I tiles ripple down each operand's chain level by level; each hop
// moves the level's tile at the slower of the two port bandwidths. Operands
// load concurrently (the phase takes the slowest operand), EXCEPT where
// their hops read the same physical port — one port moves one tile at a
// time, so shared-port hop times serialize (the reference simulator's
// behaviour).
func (ev *Evaluator) preloadCycles(p *Problem) float64 {
	ev.busy = ev.busy[:0]
	worst := 0.0
	for _, op := range preloadOps {
		total := 0.0
		chain := ev.chainMems(p.Arch, op)
		for l := 0; l+1 < len(chain); l++ {
			elems := p.Mapping.MemData(op, l, p.Layer.Strides)
			cc := hopCycles(p, chain[l+1], chain[l], op, elems)
			total += cc
			if _, idx, err := chain[l+1].Port(arch.Access{Operand: op, Write: false}); err == nil {
				found := false
				for i := range ev.busy {
					if ev.busy[i].mem == chain[l+1].Name && ev.busy[i].port == idx {
						ev.busy[i].cc += cc
						found = true
						break
					}
				}
				if !found {
					ev.busy = append(ev.busy, portBusyCC{mem: chain[l+1].Name, port: idx, cc: cc})
				}
			}
		}
		if total > worst {
			worst = total
		}
	}
	for i := range ev.busy {
		if ev.busy[i].cc > worst {
			worst = ev.busy[i].cc
		}
	}
	return worst
}

// offloadCycles estimates the data offloading phase: the final O tile at
// each level drains up the chain.
func (ev *Evaluator) offloadCycles(p *Problem) float64 {
	total := 0.0
	chain := ev.chainMems(p.Arch, loops.O)
	for l := 0; l+1 < len(chain); l++ {
		elems := p.Mapping.MemData(loops.O, l, p.Layer.Strides)
		total += hopCycles(p, chain[l], chain[l+1], loops.O, elems)
	}
	return total
}

// buildEndpoints enumerates every DTL endpoint of the problem (Step 1) into
// the evaluator's endpoint slab. The slab is sized up front so that taking
// stable pointers into it is safe.
//
// For W and I, each interface between chain level l+1 and l carries a fill
// link (read at l+1, write at l). For O, each interface carries a drain
// link (read at l, write at l+1) and, when reduction loops sit above level
// l, a psum read-back link (read at l+1, write at l).
//
// Table I application: the keep-out scaling (TopRun) is decided by the
// unit memory that HOLDS the moving tile — level l — based on its
// double-buffering and the relevance of the top temporal loop of its level
// nest. Both endpoints of a link share the same allowed window; only their
// RealBW (and hence X_REAL and SS_u) differ.
func (ev *Evaluator) buildEndpoints(p *Problem) ([]*Endpoint, error) {
	bound := 0
	for _, op := range loops.AllOperands {
		levels := len(p.Arch.Chain[op])
		if levels < 2 {
			continue
		}
		per := 2 // fill: read + write
		if op == loops.O {
			per = 4 // drain + possible psum read-back
		}
		bound += (levels - 1) * per
	}
	if cap(ev.epStore) < bound {
		ev.epStore = make([]Endpoint, 0, bound)
	}
	if cap(ev.eps) < bound {
		ev.eps = make([]*Endpoint, 0, bound)
	}
	ev.epStore = ev.epStore[:0]
	ev.eps = ev.eps[:0]

	prec := p.Layer.Precision
	ev.opc.ensure(p)

	for _, op := range loops.AllOperands {
		chain := ev.chainMems(p.Arch, op)
		if len(chain) < 2 {
			continue
		}
		quants := ev.opc.quants(p, op, chain)
		for l := 0; l+1 < len(chain); l++ {
			lower, upper := chain[l], chain[l+1]
			q := &quants[l]
			memData, memCC, z, topRun := q.memData, q.memCC, q.z, q.topRun
			if q.bad {
				return nil, fmt.Errorf("core: %s level %d: top reuse run %d does not divide Mem_CC %d", op, l, topRun, memCC)
			}
			xReq := memCC / topRun
			win := periodic.Tail(memCC, xReq, z)

			mk := func(mem *arch.Memory, write bool, kind LinkKind, zz int64) (*Endpoint, error) {
				acc := arch.Access{Operand: op, Write: write}
				port, idx, err := mem.Port(acc)
				if err != nil {
					return nil, err
				}
				bits := int64(prec.Bits(op))
				realBW := float64(port.BWBits) / float64(bits)
				w := win
				w.Count = zz
				// A port moves whole bus words: one tile transfer occupies
				// an integer number of cycles (matching real buses and the
				// reference simulator).
				xReal := float64(loops.CeilDiv(memData*bits, port.BWBits))
				if p.opts().FractionalXReal {
					xReal = float64(memData*bits) / float64(port.BWBits)
				}
				ev.epStore = append(ev.epStore, Endpoint{
					Operand: op, Level: l, Kind: kind,
					MemName: mem.Name, Access: acc, PortIdx: idx,
					MemData: memData, MemCC: memCC, Z: zz, TopRun: topRun,
					ReqBWElems:  float64(memData) * float64(topRun) / float64(memCC),
					RealBWElems: realBW,
					XReq:        xReq,
					XReal:       xReal,
					Window:      w,
				})
				ep := &ev.epStore[len(ev.epStore)-1]
				ep.MUW = float64(ep.XReq) * float64(zz)
				ep.SSu = (ep.XReal - float64(ep.XReq)) * float64(zz)
				ev.eps = append(ev.eps, ep)
				return ep, nil
			}

			if op == loops.O {
				tr := q.traffic
				// Drain: read at the lower memory, write at the upper.
				if _, err := mk(lower, false, Drain, tr.WriteUps); err != nil {
					return nil, err
				}
				if _, err := mk(upper, true, Drain, tr.WriteUps); err != nil {
					return nil, err
				}
				if tr.ReadBacks > 0 {
					if _, err := mk(upper, false, PsumBack, tr.ReadBacks); err != nil {
						return nil, err
					}
					if _, err := mk(lower, true, PsumBack, tr.ReadBacks); err != nil {
						return nil, err
					}
				}
				continue
			}

			// W / I fill: read at the upper memory, write at the lower.
			if _, err := mk(upper, false, Fill, z); err != nil {
				return nil, err
			}
			if _, err := mk(lower, true, Fill, z); err != nil {
				return nil, err
			}
		}
	}
	return ev.eps, nil
}
