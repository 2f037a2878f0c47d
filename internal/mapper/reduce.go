package mapper

// Symmetry reduction (DESIGN.md §9). The latency model reads a temporal
// nest only through per-operand per-level dim products and top reuse runs
// (core.Evaluator.AppendSignature documents the exactness argument), so the
// enumeration's orderings collapse into model-equivalence classes whose
// members all score identically. The canonicalizer computes that signature
// for candidate nests — AFTER the greedy boundary assignment, because the
// level contents the model sees are only known then — and the generator
// emits exactly one representative per class: the first member in the
// deterministic walk order, which is precisely the member the exhaustive
// search's (score, seq) tie-break would have selected.
//
// The canonicalizer is prefix-incremental. The greedy assignment reads the
// nest left to right (innermost first), so its state after a prefix — each
// operand's open level, the running per-dimension tile product, the open
// level's own products and top reuse run, and the levels already closed — is
// a pure function of that prefix. Consecutive orderings of the walk share
// their innermost positions, so the state is kept per prefix depth and only
// re-advanced from the first position that differs from the previous nest.
// The signature is then encoded straight from the per-level products, byte
// for byte what AppendSignature renders, and the bounds fall out of the
// closed levels, exactly what assignBoundsIn writes.

import (
	"encoding/binary"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// canonicalizer computes model-equivalence signatures and greedy bounds for
// temporal nests of one (layer, arch, spatial unrolling) search,
// allocation-free per nest once warm. Not safe for concurrent use: the
// serial walk owns one, each lane of the pipelined walk owns one, each
// annealing chain owns one.
type canonicalizer struct {
	l      *workload.Layer
	a      *arch.Arch
	chains [loops.NumOperands][]*arch.Memory
	store  [loops.NumOperands][]int
	m      mapping.Mapping
	prob   core.Problem
	ev     core.Evaluator
	sig    []byte

	sp  [loops.NumDims]int64
	ops [loops.NumOperands]opChain
	// last is the nest the prefix states were advanced along; states[i] is
	// the state after last[:i] (states[0] is the empty prefix).
	last   loops.Nest
	states [][loops.NumOperands]prefixState
}

// opChain is one operand's fixed greedy-assignment data plus the records of
// the levels closed along the current nest. A record written at position i
// stays valid for every prefix state at a depth above i, which is why one
// array per operand serves all depths.
type opChain struct {
	bits int64
	caps []int64 // mapper-visible capacity bits per level
	// exitCap[l] is the smallest capacity among levels l+1 .. last-1: the
	// levels a nest ending in open level l still enters empty, each of
	// which must hold the whole temporal tile.
	exitCap []int64
	// encodeRun[l] marks levels whose top reuse run is part of the
	// signature (single-buffered levels below the top).
	encodeRun []bool
	// emptyTail[l] is the signature of levels l+1 .. last left empty: the
	// tail of a nest whose open level is l.
	emptyTail [][]byte
	closed    []levelRec
}

// levelRec is a closed level: its upper bound and its signature bytes
// (per-dimension products, top reuse run), encoded once when it closes.
type levelRec struct {
	bound int
	enc   []byte
}

// prefixState is one operand's greedy-assignment state after a prefix.
type prefixState struct {
	lev    int  // the open level
	failed bool // some level's entry tile overflowed: the nest has no bounds
	tp     [loops.NumDims]int64
	lp     [loops.NumDims]int64 // the open level's own products
	run    int64                // the open level's top reuse run
}

var ones = [loops.NumDims]int64{1, 1, 1, 1, 1, 1, 1}

func newCanonicalizer(l *workload.Layer, a *arch.Arch, spatial loops.Nest) *canonicalizer {
	c := &canonicalizer{}
	c.bind(l, a, spatial)
	return c
}

// bind points the canonicalizer at one search, keeping its buffers.
func (c *canonicalizer) bind(l *workload.Layer, a *arch.Arch, spatial loops.Nest) {
	if c.a != a {
		for _, op := range loops.AllOperands {
			c.chains[op] = a.ChainMems(op)
		}
	}
	c.l, c.a = l, a
	c.m.Spatial = spatial
	c.prob = core.Problem{Layer: l, Arch: a, Mapping: &c.m}
	c.sp = spatial.DimProduct()
	c.last = c.last[:0]
	if len(c.states) == 0 {
		c.states = make([][loops.NumOperands]prefixState, 1, 16)
	}
	for _, op := range loops.AllOperands {
		chain := c.chains[op]
		oc := &c.ops[op]
		n := len(chain)
		oc.bits = int64(l.Precision.Bits(op))
		oc.caps = oc.caps[:0]
		oc.encodeRun = oc.encodeRun[:0]
		for lev, mem := range chain {
			oc.caps = append(oc.caps, mem.MapperCapacityBits())
			oc.encodeRun = append(oc.encodeRun, lev < n-1 && !mem.DoubleBuffered)
		}
		if cap(oc.emptyTail) < n {
			oc.emptyTail = make([][]byte, n)
		}
		oc.emptyTail = oc.emptyTail[:n]
		for lev := range chain {
			tail := oc.emptyTail[lev][:0]
			for above := lev + 1; above < n; above++ {
				tail = appendLevel(tail, &ones, 1, oc.encodeRun[above])
			}
			oc.emptyTail[lev] = tail
		}
		oc.exitCap = append(oc.exitCap[:0], oc.caps...)
		lo := int64(math.MaxInt64)
		for lev := n - 1; lev >= 0; lev-- {
			oc.exitCap[lev] = lo
			if lev < n-1 {
				lo = min(lo, oc.caps[lev])
			}
		}
		if cap(oc.closed) < n {
			oc.closed = make([]levelRec, n)
		}
		oc.closed = oc.closed[:n]
		if cap(c.store[op]) < n {
			c.store[op] = make([]int, n)
		}
		s := &c.states[0][op]
		*s = prefixState{tp: ones, lp: ones, run: 1}
		s.failed = n > 1 && c.tileBits(op, &s.tp) > oc.caps[0]
	}
}

// tileBits is op's tile size in bits over the temporal products tp: the
// quantity assignBoundsIn compares against each level's capacity.
func (c *canonicalizer) tileBits(op loops.Operand, tp *[loops.NumDims]int64) int64 {
	return tileElems(op, tp, &c.sp, c.l.Strides) * c.ops[op].bits
}

// advance moves the prefix states to nest, re-advancing only from the first
// position where nest differs from the previous one, and reports whether the
// greedy assignment succeeds — on success the bounds are in c.m.Bound.
func (c *canonicalizer) advance(nest loops.Nest) bool {
	k := 0
	for k < len(nest) && k < len(c.last) && nest[k] == c.last[k] {
		k++
	}
	c.last = append(c.last[:k], nest[k:]...)
	for len(c.states) <= len(nest) {
		c.states = append(c.states, [loops.NumOperands]prefixState{})
	}
	for i := k; i < len(nest); i++ {
		for _, op := range loops.AllOperands {
			c.step(op, &c.states[i][op], &c.states[i+1][op], nest[i], i)
		}
	}
	n := len(nest)
	fin := &c.states[n]
	for _, op := range loops.AllOperands {
		s := &fin[op]
		oc := &c.ops[op]
		if len(oc.caps) == 0 {
			c.m.Bound[op] = c.store[op][:0]
			continue
		}
		// A nest ending inside level s.lev still enters every level above it
		// up to the last with its whole tile.
		if s.failed || c.tileBits(op, &s.tp) > oc.exitCap[s.lev] {
			return false
		}
		bounds := c.store[op][:len(oc.caps)]
		for lev := range bounds {
			bounds[lev] = n
			if lev < s.lev {
				bounds[lev] = oc.closed[lev].bound
			}
		}
		c.m.Bound[op] = bounds
	}
	return true
}

// step advances one operand's state from prev over loop x at position i.
func (c *canonicalizer) step(op loops.Operand, prev, next *prefixState, x loops.Loop, i int) {
	*next = *prev
	oc := &c.ops[op]
	s := next
	if s.failed || len(oc.caps) == 0 {
		return
	}
	last := len(oc.caps) - 1
	// A loop over a dimension op does not read leaves its tile unchanged,
	// and below the last level the tile so far always fits the open level
	// (its entry check and every absorb kept it within capacity), so such a
	// loop is absorbed without a check.
	reuse := loops.IsReuseDim(op, x.Dim)
	for {
		if s.lev < last && !reuse {
			before := s.tp[x.Dim]
			s.tp[x.Dim] = before * x.Size
			if c.tileBits(op, &s.tp) > oc.caps[s.lev] {
				// x does not fit: close the level at i and enter the next
				// one with the tile so far.
				s.tp[x.Dim] = before
				rec := &oc.closed[s.lev]
				rec.bound = i
				rec.enc = appendLevel(rec.enc[:0], &s.lp, s.run, oc.encodeRun[s.lev])
				s.lev++
				s.lp, s.run = ones, 1
				if s.lev < last && c.tileBits(op, &s.tp) > oc.caps[s.lev] {
					s.failed = true
					return
				}
				continue
			}
		} else {
			s.tp[x.Dim] *= x.Size
		}
		s.lp[x.Dim] *= x.Size
		// The top reuse run of the level grown by x (loops.TopReuseRun read
		// from the top): size-1 loops are transparent, a reuse loop extends
		// the run, anything else resets it.
		if x.Size != 1 {
			if reuse {
				s.run *= x.Size
			} else {
				s.run = 1
			}
		}
		return
	}
}

// appendSignature advances to nest and appends its model-equivalence
// signature to dst — byte-identical to core.Evaluator.AppendSignature after
// assignBoundsIn, or boundsFailSig when the greedy assignment fails (ok
// false). On success the bounds are in c.m.Bound until the next call.
func (c *canonicalizer) appendSignature(dst []byte, nest loops.Nest) (_ []byte, ok bool) {
	if !c.advance(nest) {
		return append(dst, boundsFailSig...), false
	}
	fin := &c.states[len(nest)]
	for _, op := range loops.AllOperands {
		oc := &c.ops[op]
		if len(oc.caps) == 0 {
			continue
		}
		s := &fin[op]
		for lev := 0; lev < s.lev; lev++ {
			dst = append(dst, oc.closed[lev].enc...)
		}
		dst = appendLevel(dst, &s.lp, s.run, oc.encodeRun[s.lev])
		dst = append(dst, oc.emptyTail[s.lev]...)
	}
	return dst, true
}

// appendLevel appends one level's signature: loops.Nest.AppendDimProducts
// of its per-dimension products, then — for levels whose reuse run counts —
// the top reuse run (core.appendOperandKey's layout).
func appendLevel(dst []byte, prod *[loops.NumDims]int64, run int64, encodeRun bool) []byte {
	for d, v := range prod {
		if v != 1 {
			dst = append(dst, byte(d))
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	dst = append(dst, 0xFF)
	if encodeRun {
		dst = binary.AppendUvarint(dst, uint64(run))
	}
	return dst
}

// boundsFailSig marks the class of nests whose greedy boundary assignment
// fails (the spatial tile alone overflows a level): none of them can ever
// validate, so they all share one class and one (rejected) representative.
// A real signature is at least two bytes (a 0xFF level terminator per
// level), so the single byte cannot collide with one.
var boundsFailSig = []byte{0x00}

// signature computes nest's model-equivalence signature. The returned slice
// is the canonicalizer's scratch, valid until the next signature call.
func (c *canonicalizer) signature(nest loops.Nest) []byte {
	c.sig, _ = c.appendSignature(c.sig[:0], nest)
	return c.sig
}

// score evaluates nest exactly the way the search workers do — greedy
// bounds, validation, then the full model (bwAware) or the baseline — and
// reports whether the nest is a valid mapping at all.
func (c *canonicalizer) score(nest loops.Nest, bwAware bool) (float64, bool) {
	c.m.Temporal = nest
	if !assignBoundsIn(&c.m, c.l, &c.chains, &c.store) {
		return 0, false
	}
	if c.m.Validate(c.l, c.a) != nil {
		return 0, false
	}
	if !bwAware {
		return c.ev.LowerBound(&c.prob), true
	}
	s, err := c.ev.ScoreLatency(&c.prob)
	if err != nil {
		return 0, false
	}
	return s, true
}

// boundFloor returns the mapping-independent part of the generator's lower
// bound: the preload+offload cycles of the EMPTY temporal nest. No real
// nest can undercut it — adding temporal loops only grows the per-level
// resident tiles (TileElems is monotone in the below-nest's dim products)
// and hop cycles are monotone in tile size. LowerBound of the empty nest is
// 1 (its CC_spatial) + that floor, hence the -1.
func (c *canonicalizer) boundFloor() float64 {
	c.m.Temporal = nil
	if !assignBoundsIn(&c.m, c.l, &c.chains, &c.store) {
		return 0
	}
	return c.ev.LowerBound(&c.prob) - 1
}

// probeOrders are the two fixed loop orders (innermost first) scored before
// the walk to seed the generator's pruning bound: the canonical declaration
// order and the annealer's heuristic order (reduction innermost).
var probeOrders = [2][loops.NumDims]loops.Dim{
	{loops.B, loops.K, loops.C, loops.OY, loops.OX, loops.FY, loops.FX},
	{loops.C, loops.B, loops.OX, loops.OY, loops.K, loops.FX, loops.FY},
}

// probeNests builds the unpadded one-loop-per-dimension nests in the two
// probe orders. Both are members of the enumeration space (the unsplit
// alternative exists for every dimension, and every ordering of a block
// multiset is walked), which is what makes their scores sound pruning
// bounds: the space's optimum can never exceed a member's score.
func probeNests(extents *[loops.NumDims]int64) [2]loops.Nest {
	var out [2]loops.Nest
	for i, ord := range probeOrders {
		for _, d := range ord {
			if extents[d] > 1 {
				out[i] = append(out[i], loops.Loop{Dim: d, Size: extents[d]})
			}
		}
	}
	return out
}
