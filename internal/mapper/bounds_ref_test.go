package mapper

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// assignBoundsRef is the quadratic greedy assignBoundsIn replaced: every
// candidate boundary re-measures its tile through Mapping.MemData. It is the
// oracle for the running-product version — same bounds, same return value,
// same m.Bound state left behind when a spatial tile overflows.
func assignBoundsRef(m *mapping.Mapping, l *workload.Layer, chains *[loops.NumOperands][]*arch.Memory, store *[loops.NumOperands][]int) bool {
	n := len(m.Temporal)
	for _, op := range loops.AllOperands {
		chain := chains[op]
		bounds := store[op][:0]
		for range chain {
			bounds = append(bounds, 0)
		}
		store[op] = bounds
		prev := 0
		for lev := range chain {
			if lev == len(chain)-1 {
				bounds[lev] = n
				break
			}
			capBits := chain[lev].MapperCapacityBits()
			bits := int64(l.Precision.Bits(op))
			b := prev
			m.Bound[op] = bounds
			bounds[lev] = b
			if m.MemData(op, lev, l.Strides)*bits > capBits {
				return false
			}
			for b < n {
				bounds[lev] = b + 1
				if m.MemData(op, lev, l.Strides)*bits > capBits {
					bounds[lev] = b
					break
				}
				b++
			}
			prev = bounds[lev]
		}
		m.Bound[op] = bounds
	}
	return true
}

type boundsFixture struct {
	name    string
	a       *arch.Arch
	spatial loops.Nest
}

func boundsFixtures() []boundsFixture {
	return []boundsFixture{
		{"inhouse", arch.InHouse(), arch.InHouseSpatial()},
		{"casestudy", arch.CaseStudy(), arch.CaseStudySpatial()},
		{"rowstationary", arch.RowStationary(), arch.RowStationarySpatial()},
		{"tpulike", arch.TPULike(), arch.TPULikeSpatial()},
	}
}

// randomBoundsNest draws a temporal nest over the layer's dimensions. Sizes
// run past the extents now and then, as padded candidates do.
func randomBoundsNest(rng *rand.Rand, l *workload.Layer) loops.Nest {
	n := rng.Intn(14)
	nest := make(loops.Nest, 0, n)
	for i := 0; i < n; i++ {
		d := loops.AllDims[rng.Intn(loops.NumDims)]
		size := int64(2 + rng.Intn(7))
		if e := l.Dims[d]; e > 1 && rng.Intn(4) == 0 {
			size = e + int64(rng.Intn(3)) // a whole or padded extent
		}
		nest = append(nest, loops.Loop{Dim: d, Size: size})
	}
	return nest
}

// TestAssignBoundsMatchesReference compares assignBoundsIn with the
// quadratic reference on random nests over every arch preset and a spread
// of layers, including spatial unrollings too large for the innermost
// levels (the false return), hierarchies whose middle levels are smaller
// than the innermost, and padded temporal extents.
func TestAssignBoundsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	layers := append(workload.ResNet18Suite(), workload.MobileNetV2Suite()...)
	layers = append(layers, workload.NewMatMul("mm", 104, 768, 3072))
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	fails := 0
	for _, fx := range boundsFixtures() {
		// chains[1] shrinks every middle level below the innermost one, so
		// a prefix that fit level 0 can overflow level 1: the false return
		// with a nonzero boundary left behind.
		var chains [2][loops.NumOperands][]*arch.Memory
		for _, op := range loops.AllOperands {
			chains[0][op] = fx.a.ChainMems(op)
			for lev, mem := range chains[0][op] {
				if lev > 0 && lev < len(chains[0][op])-1 {
					small := *mem
					small.CapacityBits = chains[0][op][0].CapacityBits / 2
					mem = &small
				}
				chains[1][op] = append(chains[1][op], mem)
			}
		}
		var store, refStore [loops.NumOperands][]int
		m, ref := &mapping.Mapping{}, &mapping.Mapping{}
		for trial := 0; trial < cases; trial++ {
			ch := &chains[trial%2]
			l := layers[rng.Intn(len(layers))]
			l.Precision = workload.Precision{W: 4 << rng.Intn(3), I: 4 << rng.Intn(3), O: 16 + 8*rng.Intn(3)}
			spatial := fx.spatial
			if rng.Intn(5) == 0 {
				// A spatial unrolling whose tile overflows low levels.
				spatial = append(spatial.Clone(), loops.Loop{Dim: loops.AllDims[rng.Intn(loops.NumDims)], Size: int64(1) << (4 + rng.Intn(12))})
			}
			nest := randomBoundsNest(rng, &l)
			m.Spatial, m.Temporal = spatial, nest
			ref.Spatial, ref.Temporal = spatial, nest
			got := assignBoundsIn(m, &l, ch, &store)
			want := assignBoundsRef(ref, &l, ch, &refStore)
			if !want {
				fails++
			}
			if got != want || !reflect.DeepEqual(m.Bound, ref.Bound) {
				t.Fatalf("%s trial %d: layer %s spatial %s nest %s: got (%v, %v), want (%v, %v)",
					fx.name, trial, l.Name, spatial, nest, got, m.Bound, want, ref.Bound)
			}
		}
	}
	if fails == 0 || fails == cases*len(boundsFixtures()) {
		t.Fatalf("%d of %d cases overflowed: the draw misses a branch", fails, cases*len(boundsFixtures()))
	}
}

// BenchmarkAssignBounds times the greedy boundary assignment on a long
// temporal nest over the case-study hierarchy, the per-candidate cost every
// scored ordering pays.
func BenchmarkAssignBounds(b *testing.B) {
	l := workload.ResNet18Suite()[3]
	a := arch.CaseStudy()
	var chains [loops.NumOperands][]*arch.Memory
	for _, op := range loops.AllOperands {
		chains[op] = a.ChainMems(op)
	}
	var store [loops.NumOperands][]int
	m := &mapping.Mapping{Spatial: arch.CaseStudySpatial(), Temporal: loops.Nest{
		{Dim: loops.FX, Size: 3}, {Dim: loops.FY, Size: 3}, {Dim: loops.OX, Size: 7},
		{Dim: loops.C, Size: 4}, {Dim: loops.OY, Size: 7}, {Dim: loops.K, Size: 2},
		{Dim: loops.C, Size: 4}, {Dim: loops.OX, Size: 2}, {Dim: loops.K, Size: 4},
		{Dim: loops.OY, Size: 2}, {Dim: loops.C, Size: 2}, {Dim: loops.K, Size: 2},
	}}
	if !assignBoundsIn(m, &l, &chains, &store) {
		b.Fatal("benchmark nest does not fit")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		boundsSink = assignBoundsIn(m, &l, &chains, &store)
	}
}

var boundsSink bool
