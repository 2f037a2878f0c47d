package mapper

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// canonLayers is the layer pool the canonicalizer checks draw from.
var canonLayers = func() []workload.Layer {
	ls := append(workload.ResNet18Suite(), workload.MobileNetV2Suite()...)
	return append(ls, workload.NewMatMul("mm", 104, 768, 3072), workload.NewMatMul("small", 16, 32, 32))
}()

// canonOracle is the non-incremental reference: a fresh greedy assignment
// and core's signature encoder.
type canonOracle struct {
	l      *workload.Layer
	chains [loops.NumOperands][]*arch.Memory
	store  [loops.NumOperands][]int
	m      mapping.Mapping
	ev     core.Evaluator
	prob   core.Problem
}

func newCanonOracle(l *workload.Layer, a *arch.Arch, spatial loops.Nest) *canonOracle {
	o := &canonOracle{l: l}
	for _, op := range loops.AllOperands {
		o.chains[op] = a.ChainMems(op)
	}
	o.m.Spatial = spatial
	o.prob = core.Problem{Layer: l, Arch: a, Mapping: &o.m}
	return o
}

func (o *canonOracle) canonicalize(nest loops.Nest) ([]byte, bool) {
	o.m.Temporal = nest
	if !assignBoundsIn(&o.m, o.l, &o.chains, &o.store) {
		return boundsFailSig, false
	}
	return o.ev.AppendSignature(nil, &o.prob), true
}

// canonTrial draws an arch preset (its middle levels optionally shrunk below
// the innermost, so prefixes overflow mid-nest), a layer with a random
// precision and possibly an oversized spatial unrolling, and a sequence of
// orderings: full permute walks of a block multiset, permuteFrom jumps into
// one, and anneal-style random nests with neighbour moves. Every ordering's
// incremental signature, bounds and bounds verdict must equal the fresh
// assignBoundsIn + AppendSignature, in the order the sequence visits them.
// It returns how many orderings failed their bounds.
func canonTrial(tb testing.TB, rng *rand.Rand, visits int) (fails int) {
	fx := boundsFixtures()[rng.Intn(len(boundsFixtures()))]
	a := fx.a
	if rng.Intn(3) == 0 {
		a = a.Clone()
		for _, op := range loops.AllOperands {
			chain := a.ChainMems(op)
			for lev := 1; lev < len(chain)-1; lev++ {
				chain[lev].CapacityBits = chain[0].CapacityBits / 2
			}
		}
	}
	l := canonLayers[rng.Intn(len(canonLayers))]
	l.Precision = workload.Precision{W: 4 << rng.Intn(3), I: 4 << rng.Intn(3), O: 16 + 8*rng.Intn(3)}
	spatial := fx.spatial
	if rng.Intn(5) == 0 {
		spatial = append(spatial.Clone(), loops.Loop{Dim: loops.AllDims[rng.Intn(loops.NumDims)], Size: int64(1) << (4 + rng.Intn(12))})
	}
	c := newCanonicalizer(&l, a, spatial)
	ref := newCanonOracle(&l, a, spatial)
	check := func(nest loops.Nest) bool {
		got, ok := c.appendSignature(nil, nest)
		want, wantOK := ref.canonicalize(nest)
		if ok != wantOK || !bytes.Equal(got, want) || (ok && !reflect.DeepEqual(c.m.Bound, ref.m.Bound)) {
			tb.Fatalf("%s layer %s spatial %s nest %s: got (%v, %x, %v), want (%v, %x, %v)",
				a.Name, l.Name, spatial, nest, ok, got, c.m.Bound, wantOK, want, ref.m.Bound)
		}
		if !ok {
			fails++
		}
		visits--
		return visits > 0
	}
	for visits > 0 {
		switch rng.Intn(3) {
		case 0, 1:
			// A block multiset as the walk builds one: every dimension
			// contributes the parts of one split of a (possibly padded)
			// extent, so equal blocks are adjacent.
			var blocks []loops.Loop
			for _, d := range loops.AllDims {
				ext := loops.CeilDiv(l.Dim(d), 1+int64(rng.Intn(2)))
				alts := splits(ext, 2, rng.Intn(2) == 0)
				for _, f := range alts[rng.Intn(len(alts))] {
					if f > 1 {
						blocks = append(blocks, loops.Loop{Dim: d, Size: f})
					}
				}
			}
			if len(blocks) > 9 {
				blocks = blocks[:9] // keep a full walk of one multiset short
			}
			if n := loops.DistinctOrderings(blocks); rng.Intn(2) == 0 && n > 1 {
				permuteFrom(blocks, rng.Int63n(n), check)
			} else {
				permute(blocks, check)
			}
		default:
			nest := randomBoundsNest(rng, &l)
			for i := 0; i < 8 && check(nest); i++ {
				nest = neighbour(nest, rng)
			}
		}
	}
	return fails
}

// TestCanonicalizerMatchesFresh checks the prefix-incremental canonicalizer
// against the fresh greedy assignment and core's signature encoder over many
// drawn walks, and that the draws reach both the bounds-failure class and
// real signatures.
func TestCanonicalizerMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials, visits := 300, 400
	if testing.Short() {
		trials = 40
	}
	fails := 0
	for i := 0; i < trials; i++ {
		fails += canonTrial(t, rng, visits)
	}
	if fails == 0 || fails == trials*visits {
		t.Fatalf("%d of %d orderings failed their bounds: the draw misses a branch", fails, trials*visits)
	}
}

// FuzzCanonicalizer is the native fuzz target over canonTrial's draws.
func FuzzCanonicalizer(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed int64, visits uint16) {
		canonTrial(t, rand.New(rand.NewSource(seed)), 1+int(visits%2000))
	})
}
