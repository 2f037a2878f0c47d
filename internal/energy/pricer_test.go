package energy_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// referenceTotal is an independent oracle for the total: the energy model
// written the plain way, per-memory sums in a map folded into the total in
// sorted-name order.
func referenceTotal(t *testing.T, p *core.Problem, tbl *energy.Table) float64 {
	t.Helper()
	eps, err := core.Endpoints(p)
	if err != nil {
		t.Fatal(err)
	}
	macs := p.Layer.TotalMACs()
	prec := p.Layer.Precision
	total := float64(macs) * tbl.MACpJ
	arrayBits := float64(macs) * (float64(prec.Bits(loops.W)) + float64(prec.Bits(loops.I)) +
		float64(prec.Bits(loops.O))*(1+tbl.WritePenalty))
	total += arrayBits * tbl.RegPJPerBit
	mem := map[string]float64{}
	for _, e := range eps {
		unit := tbl.PerBit(p.Arch.MemoryByName(e.MemName).CapacityBits)
		if e.Access.Write {
			unit *= tbl.WritePenalty
		}
		mem[e.MemName] += float64(e.Z) * float64(e.MemData) * float64(prec.Bits(e.Operand)) * unit
	}
	names := make([]string, 0, len(mem))
	for n := range mem {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total += mem[n]
	}
	return total
}

// pricerProblems returns valid mappings on every architecture preset — the
// multi-memory chains exercise the name-order sum.
func pricerProblems(t *testing.T) []*core.Problem {
	t.Helper()
	presets := []struct {
		a  *arch.Arch
		sp loops.Nest
	}{
		{arch.InHouse(), arch.InHouseSpatial()},
		{arch.CaseStudy(), arch.CaseStudySpatial()},
		{arch.RowStationary(), arch.RowStationarySpatial()},
		{arch.TPULike(), arch.TPULikeSpatial()},
	}
	var out []*core.Problem
	for _, ps := range presets {
		l := workload.NewMatMul("p", 32, 64, 64)
		cands, _, err := mapper.Enumerate(context.Background(), &l, ps.a, &mapper.Options{
			Spatial: ps.sp, BWAware: true, MaxCandidates: 300,
		})
		if err != nil {
			t.Fatalf("%s: %v", ps.a.Name, err)
		}
		if len(cands) == 0 {
			t.Fatalf("%s: no valid mapping", ps.a.Name)
		}
		for i := 0; i < len(cands); i += 1 + len(cands)/8 {
			out = append(out, &core.Problem{Layer: &l, Arch: ps.a, Mapping: cands[i].Mapping})
		}
	}
	return out
}

// TestPricerMatchesEvaluate: Pricer.Price on a reused pricer and on a
// warm evaluator's endpoints is bit-identical to Evaluate(p, tbl).TotalPJ
// and to the map-based reference, for the default and a non-default table.
func TestPricerMatchesEvaluate(t *testing.T) {
	custom := &energy.Table{MACpJ: 0.31, RegPJPerBit: 0.011, BasePJPerBit: 0.027, SlopePJPerBit: 0.043, WritePenalty: 1.7}
	var pr energy.Pricer
	var ev core.Evaluator
	for _, p := range pricerProblems(t) {
		for _, tbl := range []*energy.Table{nil, custom} {
			b, err := energy.Evaluate(p, tbl)
			if err != nil {
				t.Fatal(err)
			}
			eps, err := ev.Endpoints(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pr.Price(p, eps, tbl)
			if err != nil {
				t.Fatal(err)
			}
			ref := tbl
			if ref == nil {
				ref = energy.Default7nm()
			}
			want := referenceTotal(t, p, ref)
			if math.Float64bits(got) != math.Float64bits(b.TotalPJ) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %s: Price %v, Evaluate %v, reference %v (want bit-identical)",
					p.Arch.Name, p.Mapping.Temporal, got, b.TotalPJ, want)
			}
		}
	}
}

// TestPricerAllocationFree: once warm, pricing a candidate allocates nothing.
func TestPricerAllocationFree(t *testing.T) {
	var pr energy.Pricer
	var ev core.Evaluator
	for _, p := range pricerProblems(t) {
		eps, err := ev.Endpoints(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Price(p, eps, nil); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, err := pr.Price(p, eps, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Price allocates %v times per call, want 0", p.Arch.Name, n)
		}
	}
}
