// Package core implements the paper's contribution: the uniform intra-layer
// analytical latency model for DNN accelerators (Section III). It follows
// the 3-step methodology:
//
//   - Step 1 (this file): divide the memory system into per-operand unit
//     memories, decouple each inter-level interface into read/write data
//     transfer links (DTLs), and compute each DTL endpoint's attributes —
//     Mem_DATA, Mem_CC, ReqBW_u (Table I), the periodic memory-updating
//     window MUW_u, and the per-link stall/slack SS_u.
//   - Step 2 (combine.go): combine attributes of DTLs sharing a physical
//     memory port (Eq. 1 and 2) and of DTLs serving the same memory.
//   - Step 3 (model.go): integrate SS_comb across memory levels into the
//     overall temporal stall SS_overall and assemble the total latency.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/periodic"
	"repro/internal/workload"
)

// LinkKind distinguishes the three traffic classes across a memory
// interface.
type LinkKind uint8

// Link kinds.
const (
	Fill     LinkKind = iota // W/I tiles moving toward the array (and O psum pre-fill is PsumBack)
	Drain                    // O tiles (partial or final) moving away from the array
	PsumBack                 // partial O tiles re-fetched for further accumulation
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case Fill:
		return "fill"
	case Drain:
		return "drain"
	case PsumBack:
		return "psum"
	}
	return fmt.Sprintf("LinkKind(%d)", uint8(k))
}

// Endpoint is one side (read or write) of a DTL: the access it performs at
// a physical memory port, together with all Step-1 attributes. Cycle
// quantities that depend only on the mapping (Mem_CC, X_REQ) are exact
// integers; bandwidth-dependent quantities (X_REAL, SS_u) are rationals
// carried as float64.
type Endpoint struct {
	Operand loops.Operand
	Level   int // level of the unit memory whose tile moves (lower level of the interface)
	Kind    LinkKind
	MemName string      // memory accessed at THIS endpoint
	Access  arch.Access // operand + direction at MemName
	PortIdx int         // physical port index within the memory

	MemData int64 // elements per transferred tile (Mem_DATA of the unit mem)
	MemCC   int64 // turnaround cycles (period of the unit mem's pattern)
	Z       int64 // number of active periods (transfers over the layer)
	TopRun  int64 // Table-I top-ir scaling factor (1 when fully overlappable)

	ReqBWElems  float64 // required BW, elements/cycle (Table I)
	RealBWElems float64 // actual port BW for this operand, elements/cycle
	XReq        int64   // allowed update window per period, cycles (= MemCC/TopRun)
	XReal       float64 // cycles needed per transfer at RealBW

	MUW float64 // total allowed memory updating window: XReq * Z
	SSu float64 // stall(+) / slack(-): (XReal - XReq) * Z

	Window periodic.Window // the periodic allowed-update pattern
}

// ReqBWBits returns the required bandwidth in bits/cycle for precision p.
func (e *Endpoint) ReqBWBits(prec workload.Precision) float64 {
	return e.ReqBWElems * float64(prec.Bits(e.Operand))
}

// RealBWBits returns the actual port bandwidth in bits/cycle.
func (e *Endpoint) RealBWBits(prec workload.Precision) float64 {
	return e.RealBWElems * float64(prec.Bits(e.Operand))
}

// Label renders a short human-readable endpoint id, e.g. "W@L0 fill wr GB".
func (e *Endpoint) Label() string {
	dir := "rd"
	if e.Access.Write {
		dir = "wr"
	}
	return fmt.Sprintf("%s@L%d %s %s %s", e.Operand, e.Level, e.Kind, dir, e.MemName)
}

// ModelOptions expose ablation knobs for the model's design choices (all
// false = the full model). They exist so the benchmark harness can quantify
// each choice's contribution against the reference simulator.
type ModelOptions struct {
	// FractionalXReal uses Mem_DATA/RealBW directly instead of rounding a
	// tile transfer up to whole port cycles (ablation: bus quantization).
	FractionalXReal bool
	// NoCapacityBound drops the port-capacity bound from the Step-2
	// combination and uses the paper's Eq. (2) verbatim (ablation: the
	// saturating-link correction).
	NoCapacityBound bool
	// NaiveCombine replaces Eq. (1)/(2) with a plain sum of positive
	// per-DTL stalls, cancelling them against slack (the idealization the
	// paper's no-cancellation rule exists to avoid).
	NaiveCombine bool
	// NoRigidAccumulation integrates Step 3 with the paper-verbatim
	// cross-memory max only, dropping the rigid-stall accumulation
	// (ablation: keep-out stalls of different unit memories freeze
	// compute at disjoint steps and therefore add up; see DESIGN.md).
	NoRigidAccumulation bool
}

// Problem bundles the three inputs of one model evaluation.
type Problem struct {
	Layer   *workload.Layer
	Arch    *arch.Arch
	Mapping *mapping.Mapping

	// Opts selects model ablations; nil means the full model.
	Opts *ModelOptions
}

// opts returns the effective options.
func (p *Problem) opts() ModelOptions {
	if p.Opts == nil {
		return ModelOptions{}
	}
	return *p.Opts
}

// Endpoints enumerates every DTL endpoint of the problem (Step 1). It is
// exported for consumers that need the same traffic decomposition the
// latency model uses — e.g. the access-count-based energy model. The
// returned endpoints are caller-owned (built in a throwaway Evaluator).
func Endpoints(p *Problem) ([]*Endpoint, error) {
	var ev Evaluator
	return ev.Endpoints(p)
}
