package periodic

import (
	"math/rand"
	"testing"
)

// sweepUnion is the union as computed before the segment decomposition: the
// same exact-or-fallback decisions, and every exact mixed-span union swept
// period by period over the whole range. It is the oracle the segmented
// path must match bit for bit, (length, exact) included.
func sweepUnion(ws []Window) (int64, bool) {
	live := ws[:0:0]
	span := int64(0)
	for _, w := range ws {
		if w.Span() > span {
			span = w.Span()
		}
		if w.TotalActive() > 0 {
			live = append(live, w)
		}
	}
	if len(live) == 0 || span == 0 {
		return 0, true
	}
	for _, w := range live {
		if w.IsFull() && w.Span() == span {
			return span, true
		}
	}
	if len(live) == 1 {
		return live[0].TotalActive(), true
	}
	longest := func() int64 {
		best := int64(0)
		for _, w := range live {
			if ta := w.TotalActive(); ta > best {
				best = ta
			}
		}
		return best
	}
	h := int64(1)
	for _, w := range live {
		h = lcmCapped(h, w.Period, span)
	}
	if h > span {
		h = span
	}
	var count int64
	for _, w := range live {
		count += h/w.Period + 1
	}
	if count > maxUnionIntervals {
		return longest(), false
	}
	sweep := func(limit func(Window) int64) int64 {
		runs := make([]mergeRun, 0, len(live))
		for _, w := range live {
			runs = append(runs, mergeRun{period: w.Period, start: w.Start, active: w.Active, limit: limit(w)})
		}
		return mergedLength(runs)
	}
	perH := sweep(func(w Window) int64 { return min(h, w.Span()) })
	if h >= span {
		return perH, true
	}
	allFullSpan := true
	for _, w := range live {
		if w.Span() != span {
			allFullSpan = false
		}
	}
	if allFullSpan {
		return perH * (span / h), true
	}
	var fullCount int64
	for _, w := range live {
		fullCount += w.Count + 1
	}
	if fullCount <= maxUnionIntervals {
		return sweep(Window.Span), true
	}
	return longest(), false
}

// Window shapes measured on psum ports during sharded searches: a write-up
// endpoint and its shorter read-back endpoint, often at equal periods, and
// periods forming a divisibility chain.
var measuredShapes = [][]Window{
	{{Period: 256, Active: 1, Start: 255, Count: 225792}, {Period: 256, Active: 1, Start: 255, Count: 200704}},
	{{Period: 256, Active: 7, Start: 249, Count: 225792}, {Period: 256, Active: 3, Start: 253, Count: 200704}, Full(1024, 50000)},
	{{Period: 64, Active: 16, Start: 48, Count: 1 << 20}, {Period: 512, Active: 40, Start: 472, Count: 1 << 16}, {Period: 128, Active: 1, Start: 127, Count: 3}},
	{{Period: 14, Active: 2, Start: 12, Count: 1806336}, {Period: 56, Active: 8, Start: 48, Count: 401408}},
	{Tail(3136, 64, 4096), Tail(3136, 32, 3584), Tail(784, 16, 1)},
	// Coprime periods whose short-span tail still makes the decomposition
	// the cheaper method.
	{Tail(1009, 3, 2000), Tail(1013, 5, 1500)},
}

// capEdgeShapes straddle the exact-or-fallback decision for mixed spans.
var capEdgeShapes = [][]Window{
	{Tail(2, 1, maxUnionIntervals-3), Tail(2, 1, 1)},
	{Tail(2, 1, maxUnionIntervals-2), Tail(2, 1, 1)},
	{Tail(2, 1, maxUnionIntervals), Tail(4, 1, 2)},
}

// coprimeShape has coprime periods and nearly equal spans: the hyperperiod
// exceeds the shared segment, so the decomposition would sweep more
// intervals than the plain sweep and must decline.
var coprimeShape = []Window{Tail(1009, 3, 1000), Tail(1013, 5, 996)}

func TestUnionMatchesSweepReference(t *testing.T) {
	shapes := append(append(measuredShapes, capEdgeShapes...), coprimeShape)
	for i, ws := range shapes {
		gotN, gotExact := Union(ws)
		wantN, wantExact := sweepUnion(ws)
		if gotN != wantN || gotExact != wantExact {
			t.Errorf("shape %d %v: Union = (%d, %v), sweep = (%d, %v)", i, ws, gotN, gotExact, wantN, wantExact)
		}
	}
	for i, want := range []bool{true, false, false} {
		if _, exact := Union(capEdgeShapes[i]); exact != want {
			t.Errorf("cap edge %d %v: exact = %v, want %v", i, capEdgeShapes[i], exact, want)
		}
	}
}

// TestUnionPathChoice pins which exact method the mixed-span branch runs:
// the measured shapes take the decomposition, the coprime shape the sweep.
func TestUnionPathChoice(t *testing.T) {
	runsOf := func(ws []Window) ([]mergeRun, int64) {
		var runs []mergeRun
		var fullCount int64
		for _, w := range ws {
			runs = append(runs, mergeRun{period: w.Period, start: w.Start, active: w.Active, count: w.Count})
			fullCount += w.Count + 1
		}
		return runs, fullCount
	}
	for i, ws := range measuredShapes {
		runs, fullCount := runsOf(ws)
		if _, ok := segmentedLength(runs, fullCount); !ok {
			t.Errorf("shape %d %v: decomposition declined", i, ws)
		}
	}
	runs, fullCount := runsOf(coprimeShape)
	if _, ok := segmentedLength(runs, fullCount); ok {
		t.Errorf("coprime shape %v took the decomposition", coprimeShape)
	}
}

// TestUnionDifferentialRandom compares Union with the sweep reference on
// random mixed-span window sets, periods drawn from divisibility chains
// (the model's common case) and from arbitrary ranges.
func TestUnionDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	chain := []int64{1, 2, 4, 8, 16, 48, 96, 192, 576}
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for trial := 0; trial < cases; trial++ {
		k := 2 + rng.Intn(3)
		ws := make([]Window, k)
		for i := range ws {
			var p int64
			if trial%2 == 0 {
				p = chain[rng.Intn(len(chain))]
			} else {
				p = 1 + rng.Int63n(40)
			}
			x := rng.Int63n(p + 1)
			s := int64(0)
			if p-x > 0 {
				s = rng.Int63n(p - x + 1)
			}
			ws[i] = Window{Period: p, Active: x, Start: s, Count: rng.Int63n(3000)}
		}
		gotN, gotExact := Union(ws)
		wantN, wantExact := sweepUnion(ws)
		if gotN != wantN || gotExact != wantExact {
			t.Fatalf("trial %d %v: Union = (%d, %v), sweep = (%d, %v)", trial, ws, gotN, gotExact, wantN, wantExact)
		}
	}
}

func TestUnionWithAllocatesNothing(t *testing.T) {
	var sc UnionScratch
	ws := measuredShapes[1]
	UnionWith(ws, &sc)
	if n := testing.AllocsPerRun(20, func() { UnionWith(ws, &sc) }); n != 0 {
		t.Errorf("UnionWith allocates %.1f times per call", n)
	}
}

// BenchmarkUnionMixedSpans times the union of a psum port's write-up and
// read-back endpoints, the shape that dominated sharded-search profiles.
func BenchmarkUnionMixedSpans(b *testing.B) {
	var sc UnionScratch
	ws := measuredShapes[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unionSink, _ = UnionWith(ws, &sc)
	}
}

var unionSink int64

// TestHyperperiodOverflow pins the hyperperiod of two periods whose lcm
// (~1.8e19) overflows int64: the unchecked step h/g*P wrapped to 2^34+3,
// a positive value below a 1.8e10 limit, and was returned as if it were the
// hyperperiod. It must saturate. In Union that value only feeds the
// exact-or-fallback decision: for the window pair below the saturated
// hyperperiod makes the periodic sweep cost more than maxUnionIntervals, so
// the rule falls back to the conservative longest-window bound, where the
// wrapped value let the exact segmented path run instead.
func TestHyperperiodOverflow(t *testing.T) {
	p1, p2 := int64(1)<<32+1, int64(1)<<32+3
	const limit = 18_000_000_000
	runs := []mergeRun{{period: p1}, {period: p2}}
	if h := hyperperiod(runs, limit); h != limit+1 {
		t.Fatalf("hyperperiod(%d, %d) under %d = %d, want saturation at %d", p1, p2, int64(limit), h, int64(limit)+1)
	}
	for _, tc := range []struct{ periods []int64 }{{[]int64{4, 6}}, {[]int64{7, 11, 13}}, {[]int64{1 << 20, 3 << 18}}} {
		var rs []mergeRun
		want := int64(1)
		for _, p := range tc.periods {
			rs = append(rs, mergeRun{period: p})
			want = want / gcd(want, p) * p
		}
		if h := hyperperiod(rs, limit); h != want {
			t.Errorf("hyperperiod(%v) = %d, want %d", tc.periods, h, want)
		}
	}

	// The long window spans ~6.4e15 cycles; the short one only five periods.
	const c1 = 1_500_000
	ws := []Window{Tail(p1, 1000, c1), Tail(p2, 1000, 5)}
	gotN, gotExact := Union(ws)
	wantN, wantExact := sweepUnion(ws)
	if gotN != wantN || gotExact != wantExact {
		t.Fatalf("Union = (%d, %v), sweep = (%d, %v)", gotN, gotExact, wantN, wantExact)
	}
	if gotExact || gotN != 1000*c1 {
		t.Fatalf("Union = (%d, %v), want the fallback bound (%d, false)", gotN, gotExact, 1000*c1)
	}
	// The true union: the two tails overlap in all but 2(k+1) cycles of
	// period k < 5; the fallback may only undercount it.
	if exact := int64(1000*c1 + 2*(1+2+3+4+5)); gotN > exact {
		t.Fatalf("fallback %d exceeds the true union %d", gotN, exact)
	}
	// A scaled-down copy of the shape stays exact and matches the bitmap.
	small := []Window{Tail(101, 10, 50), Tail(103, 10, 5)}
	if n, exact := Union(small); !exact || n != bruteUnion(small) {
		t.Fatalf("scaled shape: Union = (%d, %v), brute = %d", n, exact, bruteUnion(small))
	}
}
