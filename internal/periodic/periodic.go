// Package periodic models the finite periodic operation pattern of a unit
// memory's data-transfer link (paper Fig. 2(a), Step 1): a window function
// with four parameters — period (Mem_CC), active length within one period
// (X), active start offset within one period (S), and number of periods (Z).
// The total allowed memory-updating window MUW_u of a link is the total
// active length X*Z; Step 2 combines links sharing a physical port by taking
// the UNION of their window sets, which this package computes exactly via
// interval merging over the windows' common hyperperiod.
package periodic

import (
	"fmt"
	"math/bits"
)

// Window is a finite periodic activity pattern: Count periods of length
// Period, each with an active interval [Start, Start+Active) that must not
// wrap past the period boundary.
type Window struct {
	Period int64 // cycles per period (Mem_CC); > 0
	Active int64 // active cycles per period (X); 0 <= Active <= Period
	Start  int64 // active start offset within the period (S)
	Count  int64 // number of periods (Z); >= 0
}

// Full returns a window that is active for its entire span: count periods
// of length period, fully active. This models double-buffered memories and
// single-buffered memories with a relevant loop on top (paper Fig. 3(a-c)),
// whose updates may overlap computation at any time.
func Full(period, count int64) Window {
	return Window{Period: period, Active: period, Start: 0, Count: count}
}

// Tail returns a window active only for the LAST active cycles of each
// period: the "memory update keep-out zone" pattern of single-buffered
// memories with an irrelevant loop on top (paper Fig. 3(d-f)) — the held
// data is being reused and may only be replaced at the end of the period.
func Tail(period, active, count int64) Window {
	if active > period {
		active = period
	}
	return Window{Period: period, Active: active, Start: period - active, Count: count}
}

// Validate reports structural errors.
func (w Window) Validate() error {
	if w.Period <= 0 {
		return fmt.Errorf("periodic: non-positive period %d", w.Period)
	}
	if w.Active < 0 || w.Active > w.Period {
		return fmt.Errorf("periodic: active %d outside [0, period %d]", w.Active, w.Period)
	}
	if w.Start < 0 || w.Start+w.Active > w.Period {
		return fmt.Errorf("periodic: active interval [%d,%d) exceeds period %d", w.Start, w.Start+w.Active, w.Period)
	}
	if w.Count < 0 {
		return fmt.Errorf("periodic: negative count %d", w.Count)
	}
	return nil
}

// Span is the total time covered by the window: Period * Count.
func (w Window) Span() int64 { return w.Period * w.Count }

// TotalActive is the total active length across all periods: Active * Count.
// For a DTL this is MUW_u = X_REQ * Z.
func (w Window) TotalActive() int64 { return w.Active * w.Count }

// IsFull reports whether the window is active over its whole span.
func (w Window) IsFull() bool { return w.Active == w.Period }

// ActiveAt reports whether absolute cycle t lies in an active interval.
func (w Window) ActiveAt(t int64) bool {
	if t < 0 || t >= w.Span() {
		return false
	}
	ph := t % w.Period
	return ph >= w.Start && ph < w.Start+w.Active
}

// String renders the window compactly.
func (w Window) String() string {
	return fmt.Sprintf("{P=%d X=%d S=%d Z=%d}", w.Period, w.Active, w.Start, w.Count)
}

// maxUnionIntervals bounds the exact interval expansion; beyond it
// UnionLength falls back to a conservative (stall-overestimating) bound.
// See DESIGN.md ("no silent caps"): callers can detect the fallback via
// UnionExact.
const maxUnionIntervals = 1 << 21

// gcd of two non-negative ints.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// hyperperiod returns the least common multiple of the runs' periods,
// saturating at limit (returns limit+1 when exceeded). Each step is the
// overflow-safe lcmCapped, so a wrapped int64 can never pass for a
// hyperperiod.
func hyperperiod(runs []mergeRun, limit int64) int64 {
	h := int64(1)
	for _, r := range runs {
		h = lcmCapped(h, r.period, limit)
	}
	return h
}

// UnionLength returns the total length of the union of the windows' active
// sets, measured over [0, span) where span is the maximum window span. This
// is MUW_comb of the paper's Step 2. Windows must be valid.
func UnionLength(ws []Window) int64 {
	n, _ := unionLength(ws, nil)
	return n
}

// Union returns UnionLength and UnionExact in a single pass — the form the
// latency model's hot path uses, since it always needs both.
func Union(ws []Window) (length int64, exact bool) {
	return unionLength(ws, nil)
}

// UnionScratch carries the cursor buffer of the union computation so that
// repeated UnionWith calls (one per physical port per model evaluation)
// reuse it instead of allocating.
type UnionScratch struct {
	runs []mergeRun
}

// UnionWith is Union with caller-provided scratch (nil behaves like Union).
func UnionWith(ws []Window, sc *UnionScratch) (length int64, exact bool) {
	return unionLength(ws, sc)
}

// UnionExact reports whether UnionLength would compute the exact union for
// these windows (as opposed to the conservative fallback bound).
func UnionExact(ws []Window) bool {
	_, exact := unionLength(ws, nil)
	return exact
}

func unionLength(ws []Window, sc *UnionScratch) (int64, bool) {
	if sc == nil {
		sc = &UnionScratch{}
	}
	// One cursor per non-empty window.
	runs := sc.runs[:0]
	span := int64(0)
	for _, w := range ws {
		if w.Span() > span {
			span = w.Span()
		}
		if w.TotalActive() > 0 {
			runs = append(runs, mergeRun{period: w.Period, start: w.Start, active: w.Active, count: w.Count})
		}
	}
	sc.runs = runs
	if len(runs) == 0 || span == 0 {
		return 0, true
	}
	// Fast path: any full window covering the whole span covers everything.
	for _, r := range runs {
		if r.active == r.period && r.span() == span {
			return span, true
		}
	}
	if len(runs) == 1 {
		return runs[0].active * runs[0].count, true
	}

	h := hyperperiod(runs, span)
	if h > span {
		h = span
	}
	// Estimate the interval count; fall back if pathological.
	if sweptIntervals(runs, h) > maxUnionIntervals {
		return fallbackLength(runs), false
	}

	allFullSpan := true
	for _, r := range runs {
		if r.span() != span {
			allFullSpan = false
			break
		}
	}
	if allFullSpan {
		// Every window spans [0, span), a multiple of h: the union pattern
		// repeats exactly span/h times.
		return prefixLength(runs, h) * (span / h), true
	}
	// Mixed spans (the psum read-back endpoint of a port spans fewer
	// periods than its write-up endpoint). The exact-or-fallback decision
	// is the whole-range sweep's whichever exact method then runs, so
	// (length, exact) does not depend on the method.
	var fullCount int64
	for _, r := range runs {
		fullCount += r.count + 1
	}
	if h < span && fullCount > maxUnionIntervals {
		return fallbackLength(runs), false
	}
	if n, ok := segmentedLength(runs, fullCount); ok {
		return n, true
	}
	for i := range runs {
		runs[i].base, runs[i].limit = 0, runs[i].span()
	}
	return mergedLength(runs), true
}

// fallbackLength is the conservative union bound: the union is at least as
// long as its longest member (underestimating the union overestimates the
// combined stall — safe for a latency bound).
func fallbackLength(runs []mergeRun) int64 {
	best := int64(0)
	for _, r := range runs {
		if ta := r.active * r.count; ta > best {
			best = ta
		}
	}
	return best
}

// segmentedLength measures the union of windows with differing spans
// without sweeping every period. Between two consecutive span ends the set
// of live windows is fixed, and their union is periodic in that set's
// hyperperiod hL; so the measure over a segment [a, b) is G(b) − G(a) with
// G(t) = ⌊t/hL⌋·U + M(t mod hL), where U is the union over one hyperperiod
// and M(r) the union over [0, r), both swept by mergedLength.
//
// It first prices that decomposition in swept intervals and declines
// (ok = false) unless it costs fewer than sweepCost —
// coprime periods, for instance, make hL exceed the segment and leave the
// plain sweep cheaper. Both methods are exact. runs is reordered by
// decreasing span, so each segment's live set is a prefix.
func segmentedLength(runs []mergeRun, sweepCost int64) (length int64, ok bool) {
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].span() > runs[j-1].span(); j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	var cost int64
	for pass := 0; pass < 2; pass++ {
		hL := int64(1)
		for i := 0; i < len(runs); {
			b := runs[i].span()
			for ; i < len(runs) && runs[i].span() == b; i++ {
				hL = lcmCapped(hL, runs[i].period, runs[0].span())
			}
			a := int64(0)
			if i < len(runs) {
				a = runs[i].span()
			}
			live := runs[:i]
			qa, ra, qb, rb := int64(0), a, int64(0), b
			if hL <= b {
				qa, ra, qb, rb = a/hL, a%hL, b/hL, b%hL
			}
			if pass == 0 {
				cost += sweptIntervals(live, rb) + sweptIntervals(live, ra)
				if qb > qa {
					cost += sweptIntervals(live, hL)
				}
				if cost >= sweepCost {
					return 0, false
				}
				continue
			}
			if qb > qa {
				length += (qb - qa) * prefixLength(live, hL)
			}
			length += prefixLength(live, rb) - prefixLength(live, ra)
		}
	}
	return length, true
}

// lcmCapped returns lcm(h, p), or limit+1 once it exceeds limit (h is
// already limit+1 or at most limit; h, p >= 1). Overflow-safe: the product
// is formed in 128 bits.
func lcmCapped(h, p, limit int64) int64 {
	if h > limit {
		return h
	}
	hi, lo := bits.Mul64(uint64(h/gcd(h, p)), uint64(p))
	if hi != 0 || lo > uint64(limit) {
		return limit + 1
	}
	return int64(lo)
}

// sweptIntervals is how many intervals prefixLength(runs, limit) visits.
func sweptIntervals(runs []mergeRun, limit int64) int64 {
	if limit <= 0 {
		return 0
	}
	var n int64
	for _, r := range runs {
		n += limit/r.period + 1
	}
	return n
}

// prefixLength is the measure over [0, limit) of the union of the runs'
// unbounded periodic patterns.
func prefixLength(runs []mergeRun, limit int64) int64 {
	if limit <= 0 {
		return 0
	}
	for i := range runs {
		runs[i].base, runs[i].limit = 0, limit
	}
	return mergedLength(runs)
}

// mergeRun is one window's cursor in the k-way interval merge: it yields the
// window's active intervals [base+start, base+start+active) for base = 0,
// period, 2·period, … clipped to limit, in increasing order. Because every
// window emits its intervals already sorted, the union needs no global sort —
// a k-way merge over the cursors visits the intervals left to right, and the
// measure of a union is a set property.
type mergeRun struct {
	period, start, active int64
	count                 int64 // the window's number of periods (Z)
	base                  int64 // next interval base offset
	limit                 int64 // clip bound (exclusive)
}

// span is the window's own extent, Period·Count.
func (r *mergeRun) span() int64 { return r.period * r.count }

// mergedLength sweeps the k cursors left to right and returns the total
// length of the union of their intervals. k is the number of windows sharing
// a physical port — a handful — so the linear min-scan per step beats any
// heap bookkeeping.
func mergedLength(runs []mergeRun) int64 {
	var total int64
	curLo, curHi := int64(0), int64(-1) // curHi < curLo ⇔ no open interval
	for {
		best := -1
		var bestLo int64
		for i := range runs {
			r := &runs[i]
			lo := r.base + r.start
			if lo >= r.limit || r.active == 0 {
				continue
			}
			if best < 0 || lo < bestLo {
				best, bestLo = i, lo
			}
		}
		if best < 0 {
			break
		}
		r := &runs[best]
		lo := r.base + r.start
		hi := lo + r.active
		if hi > r.limit {
			hi = r.limit
		}
		r.base += r.period
		switch {
		case curHi < curLo:
			curLo, curHi = lo, hi
		case lo > curHi:
			total += curHi - curLo
			curLo, curHi = lo, hi
		case hi > curHi:
			curHi = hi
		}
	}
	if curHi >= curLo {
		total += curHi - curLo
	}
	return total
}

// IntersectLength returns the total length of the intersection of the two
// windows' active sets over the overlap of their spans. The model's Step 2
// uses unions; intersections support analyses of guaranteed-conflict time.
func IntersectLength(a, b Window) int64 {
	if err := a.Validate(); err != nil {
		panic(err)
	}
	if err := b.Validate(); err != nil {
		panic(err)
	}
	span := a.Span()
	if s := b.Span(); s < span {
		span = s
	}
	if span == 0 || a.Active == 0 || b.Active == 0 {
		return 0
	}
	h := int64(1)
	g := gcd(a.Period, b.Period)
	h = a.Period / g * b.Period
	if h > span {
		h = span
	}
	var total int64
	// Walk a's intervals within one hyperperiod and clip against b.
	count := int64(0)
	for base := int64(0); base < h; base += a.Period {
		lo, hi := base+a.Start, base+a.Start+a.Active
		if lo >= h {
			break
		}
		if hi > h {
			hi = h
		}
		total += overlapWithPeriodic(lo, hi, b)
		count++
		if count > maxUnionIntervals {
			break
		}
	}
	if h >= span {
		return total
	}
	return total * (span / h)
}

// overlapWithPeriodic returns |[lo,hi) ∩ active(b)| assuming hi-lo fits in
// a few of b's periods.
func overlapWithPeriodic(lo, hi int64, b Window) int64 {
	var total int64
	base := lo - lo%b.Period
	for ; base < hi; base += b.Period {
		blo, bhi := base+b.Start, base+b.Start+b.Active
		s, e := blo, bhi
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
		}
	}
	return total
}
