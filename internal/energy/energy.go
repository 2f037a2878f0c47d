// Package energy implements the standard analytical energy model the paper
// builds on (Section I: "count the operations of each hardware component
// ... and multiply these with the corresponding unit energy"). It reuses
// the latency model's DTL decomposition to count per-memory read/write
// accesses, adds the MAC-array-level operand accesses, and prices them with
// a capacity-dependent unit-energy table.
//
// Absolute numbers are synthetic (a 7nm-class technology curve); the case
// studies only rely on RELATIVE energies between mappings, which depend on
// access counts, not on the absolute scale.
package energy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/loops"
)

// Table holds the unit-energy parameters.
type Table struct {
	// MACpJ is the energy of one multiply-accumulate operation.
	MACpJ float64
	// RegPJPerBit is the per-bit access energy of the register level used
	// for the implicit array-side operand accesses.
	RegPJPerBit float64
	// BasePJPerBit and SlopePJPerBit parametrize the capacity-dependent
	// per-bit access energy of SRAM-class memories:
	//   e(C) = BasePJPerBit + SlopePJPerBit * sqrt(C / 8KiB).
	BasePJPerBit  float64
	SlopePJPerBit float64
	// WritePenalty scales write accesses relative to reads.
	WritePenalty float64
}

// default7nm is the table Default7nm returns a copy of, and the one Price
// uses for a nil table without allocating.
var default7nm = Table{
	MACpJ:         0.12,
	RegPJPerBit:   0.008,
	BasePJPerBit:  0.015,
	SlopePJPerBit: 0.020,
	WritePenalty:  1.1,
}

// Default7nm returns a plausible 7nm-class INT8 table.
func Default7nm() *Table {
	t := default7nm
	return &t
}

// PerBit returns the per-bit read energy of a memory with the given
// capacity. Writes additionally scale by WritePenalty. Exported for
// consumers that price raw byte traffic outside a mapping (the
// bandwidth-bound elementwise passes of package network).
func (t *Table) PerBit(capacityBits int64) float64 {
	return t.BasePJPerBit + t.SlopePJPerBit*math.Sqrt(float64(capacityBits)/(8*1024*8))
}

// Breakdown is the evaluated energy of one problem.
type Breakdown struct {
	MACPJ   float64            // total MAC energy
	ArrayPJ float64            // array-side register accesses (level-0 operand feeds)
	MemPJ   map[string]float64 // per physical memory module
	TotalPJ float64
}

// MemNames returns the memory names in deterministic order.
func (b *Breakdown) MemNames() []string {
	names := make([]string, 0, len(b.MemPJ))
	for n := range b.MemPJ {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Evaluate computes the total energy and its breakdown. It prices the
// endpoints with a throwaway Pricer, so TotalPJ is bit-identical to
// Pricer.Price on the same problem.
func Evaluate(p *core.Problem, tbl *Table) (*Breakdown, error) {
	eps, err := core.Endpoints(p)
	if err != nil {
		return nil, err
	}
	var pr Pricer
	total, err := pr.Price(p, eps, tbl)
	if err != nil {
		return nil, err
	}
	b := &Breakdown{MACPJ: pr.macPJ, ArrayPJ: pr.arrayPJ, MemPJ: make(map[string]float64, len(pr.mems)), TotalPJ: total}
	for _, m := range pr.mems {
		b.MemPJ[m.name] = m.pj
	}
	return b, nil
}

// Pricer prices a problem's energy from its Step-1 endpoints. Its
// per-memory accumulators persist across calls, so once warm a Price call
// allocates nothing — the mapper's energy and EDP searches price every
// valid candidate on one. A zero Pricer is ready to use; it is not safe for
// concurrent use.
type Pricer struct {
	macPJ   float64
	arrayPJ float64
	mems    []memAcc
}

// memAcc accumulates one memory module's access energy.
type memAcc struct {
	name string
	unit float64 // per-bit read energy of the module
	pj   float64
}

// Price returns the total energy of p in pJ, given the endpoints that
// core.Endpoints (or a core.Evaluator's Endpoints) built for p. A nil tbl
// means Default7nm.
func (pr *Pricer) Price(p *core.Problem, eps []*core.Endpoint, tbl *Table) (float64, error) {
	if tbl == nil {
		tbl = &default7nm
	}
	// MAC operations.
	macs := p.Layer.TotalMACs()
	pr.macPJ = float64(macs) * tbl.MACpJ

	// Array-side accesses at level 0: every MAC op reads one W and one I
	// element and reads+writes one O partial sum from/to the innermost
	// level.
	prec := p.Layer.Precision
	arrayBits := float64(macs) * (float64(prec.Bits(loops.W)) + float64(prec.Bits(loops.I)) +
		float64(prec.Bits(loops.O))*(1+tbl.WritePenalty))
	pr.arrayPJ = arrayBits * tbl.RegPJPerBit

	// Inter-level traffic: each DTL endpoint performs Z transfers of
	// MemData elements at its memory, accumulated per memory in endpoint
	// order.
	pr.mems = pr.mems[:0]
	for _, e := range eps {
		var acc *memAcc
		for i := range pr.mems {
			if pr.mems[i].name == e.MemName {
				acc = &pr.mems[i]
				break
			}
		}
		if acc == nil {
			mem := p.Arch.MemoryByName(e.MemName)
			if mem == nil {
				return 0, fmt.Errorf("energy: unknown memory %q", e.MemName)
			}
			pr.mems = append(pr.mems, memAcc{name: e.MemName, unit: tbl.PerBit(mem.CapacityBits)})
			acc = &pr.mems[len(pr.mems)-1]
		}
		bits := float64(e.Z) * float64(e.MemData) * float64(prec.Bits(e.Operand))
		unit := acc.unit
		if e.Access.Write {
			unit *= tbl.WritePenalty
		}
		acc.pj += bits * unit
	}

	// Sum in name order: float addition is not associative, so the order
	// the memories were first touched in would change the total in its last
	// bits from mapping to mapping — enough to flip exact-tie comparisons
	// in mapping searches. Insertion sort: a handful of memories, and no
	// closure to allocate.
	for i := 1; i < len(pr.mems); i++ {
		for j := i; j > 0 && pr.mems[j].name < pr.mems[j-1].name; j-- {
			pr.mems[j], pr.mems[j-1] = pr.mems[j-1], pr.mems[j]
		}
	}
	total := pr.macPJ + pr.arrayPJ
	for i := range pr.mems {
		total += pr.mems[i].pj
	}
	return total, nil
}
