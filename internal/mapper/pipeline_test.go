package mapper

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/workload"
)

// walkRecord is everything the producer hands the scorers for one
// representative, copied out of the producer's shared buffers.
type walkRecord struct {
	seq    int64
	nest   string
	bstate uint8
	bnd    string
}

// walkRun is the observable output of one producer run.
type walkRun struct {
	recs      []walkRecord
	stats     Stats
	classes   []ShardClass
	truncated bool
	resume    ShardSpec
}

// produce runs the producer the way runSearch does — serially with lanes
// == 0, else generatePipelined over that many lanes — and records its output.
func produce(t *testing.T, l *workload.Layer, a *arch.Arch, opt *Options, spec *ShardSpec, lanes int) walkRun {
	t.Helper()
	o := opt.normalized()
	var sh *shardRun
	if spec != nil {
		sh = &shardRun{spec: *spec}
	}
	e := &engine{ctx: context.Background(), l: l, a: a, o: &o, mode: modeBest, shard: sh}
	e.genPrune = o.Objective == MinLatency
	e.bestBits.Store(math.Float64bits(math.Inf(1)))
	var run walkRun
	record := func(j job) {
		run.recs = append(run.recs, walkRecord{seq: j.seq, nest: j.nest.String(), bstate: j.bstate, bnd: fmt.Sprint(j.bnd)})
	}
	n := max(lanes, 1)
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = newWorker(e)
	}
	if lanes == 0 {
		e.generate(&run.stats, &ws[0].s.canon, record)
	} else {
		p := startLanes(e, ws)
		p.run(func() { e.generatePipelined(&run.stats, p, record) })
	}
	for _, w := range ws {
		w.release()
	}
	if e.panicErr != nil || e.aborted.Load() {
		t.Fatalf("producer aborted: %v", e.panicErr)
	}
	if sh != nil {
		run.classes, run.truncated, run.resume = sh.classes, sh.truncated, sh.resume
	}
	return run
}

// TestPipelinedMatchesSerial: the lane-canonicalized walk with its in-order
// commit emits exactly the serial walk's (seq, nest) stream — with the same
// bounds shipped along — and the same exact Stats and shard class records,
// for 1–8 lanes, over whole-space searches and the shards of several plans
// (including sub-multiset boundaries and a capped walk), on every
// equivalence case plus one long walk.
func TestPipelinedMatchesSerial(t *testing.T) {
	cases := append(equivCases(), equivCase{
		// ~19k visits: many more blocks than any lane count keeps in flight.
		name: "casestudy-matmul-long", l: workload.NewMatMul("m", 128, 128, 128), a: arch.CaseStudy(),
		o: Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 20000},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := []*ShardSpec{nil}
			for _, k := range []int{3, 5} {
				plan, err := PlanShards(context.Background(), &tc.l, tc.a, &tc.o, k)
				if err != nil {
					t.Fatal(err)
				}
				for i := range plan.Specs {
					specs = append(specs, &plan.Specs[i])
				}
			}
			for _, spec := range specs {
				want := produce(t, &tc.l, tc.a, &tc.o, spec, 0)
				if spec == nil && len(want.recs) < 2 {
					t.Fatalf("serial walk emitted %d representatives: the case is degenerate", len(want.recs))
				}
				for lanes := 1; lanes <= 8; lanes++ {
					got := produce(t, &tc.l, tc.a, &tc.o, spec, lanes)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("spec %+v, %d lanes: pipelined walk diverged from the serial one:\n got %d recs, stats %+v, %d classes\nwant %d recs, stats %+v, %d classes",
							spec, lanes, len(got.recs), got.stats, len(got.classes), len(want.recs), want.stats, len(want.classes))
					}
				}
			}
		})
	}
}

// TestGuidedMatchesUnguided is the end-to-end half of the pipelined walk's
// contract: the incumbent-guided search — the workers' branch and bound on
// the lane-canonicalized walk, at 1, 3 and 8 workers — returns a
// byte-identical winner (same score bits, same temporal nest) and the same
// Stats, field for field, as the unguided reference: a serial walk with
// NoPrune. Only Pruned, which is trajectory-dependent, may differ.
func TestGuidedMatchesUnguided(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			off := tc.o
			off.NoPrune = true
			off.Workers = 1
			refCand, refStats, refErr := Best(context.Background(), &tc.l, tc.a, &off)

			for _, workers := range []int{1, 3, 8} {
				on := tc.o
				on.Workers = workers
				cand, stats, err := Best(context.Background(), &tc.l, tc.a, &on)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("workers=%d: err = %v, unguided err = %v", workers, err, refErr)
				}
				if err != nil {
					continue
				}
				got := math.Float64bits(cand.Score(tc.o.Objective))
				want := math.Float64bits(refCand.Score(tc.o.Objective))
				if got != want {
					t.Errorf("workers=%d: score bits %x, want %x (guided %v vs unguided %v)",
						workers, got, want, cand.Score(tc.o.Objective), refCand.Score(tc.o.Objective))
				}
				if g, w := cand.Mapping.Temporal.String(), refCand.Mapping.Temporal.String(); g != w {
					t.Errorf("workers=%d: mapping %s, want %s", workers, g, w)
				}
				gotStats, wantStats := *stats, *refStats
				gotStats.Pruned, wantStats.Pruned = 0, 0
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
				}
			}
		})
	}
}

// panickingHooks returns hooks whose progress callback (run on the walk
// goroutine) or improvement callback (run on the scoring lanes) panics.
func panickingHooks(where string) *obs.SearchHooks {
	switch where {
	case "walk":
		return &obs.SearchHooks{Progress: func(obs.SearchProgress) { panic("boom in the walk") }}
	default:
		return &obs.SearchHooks{ImprovedBest: func(float64, int64) { panic("boom in a lane") }}
	}
}

// TestSearchPanicBecomesError: a panic on the walk goroutine or on a
// scoring/canonicalizing lane fails the search with a *PanicError instead of
// crashing the process, for the serial path, forced lanes and lanes drawn
// from the shared budget — whose tokens all come back — and leaks no
// goroutine. The cached front end does not keep the failure: the next call
// for the same key computes afresh.
func TestSearchPanicBecomesError(t *testing.T) {
	defer par.SetLimit(par.Limit())
	par.SetLimit(4)
	memo.Default.Reset()
	base := runtime.NumGoroutine()
	// The walk visits ~19k orderings, so the progress callback fires inside
	// the walk (every progressInterval visits), not only in the final
	// snapshot.
	l := workload.NewMatMul("m", 128, 128, 128)
	for _, where := range []string{"walk", "lane"} {
		for _, workers := range []int{1, 4, 0} {
			o := &Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 20000, Workers: workers, Hooks: panickingHooks(where)}
			cand, _, err := Best(context.Background(), &l, arch.CaseStudy(), o)
			var pe *PanicError
			if cand != nil || !errors.As(err, &pe) || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("%s panic, workers=%d: Best = (%v, %v), want a *PanicError", where, workers, cand, err)
			}
			if got := par.AcquireUpTo(par.Limit() - 1); got != par.Limit()-1 {
				t.Fatalf("%s panic, workers=%d: %d of %d budget tokens free after the search", where, workers, got, par.Limit()-1)
			} else {
				for i := 0; i < got; i++ {
					par.Release()
				}
			}
			waitGoroutines(t, base)

			if _, _, err := BestCached(context.Background(), &l, arch.CaseStudy(), o); !errors.As(err, &pe) {
				t.Fatalf("%s panic, workers=%d: BestCached = %v, want a *PanicError", where, workers, err)
			}
			quiet := *o
			quiet.Hooks = nil
			if _, _, err := BestCached(context.Background(), &l, arch.CaseStudy(), &quiet); err != nil {
				t.Fatalf("%s panic, workers=%d: the cache kept the panic: %v", where, workers, err)
			}
			memo.Default.Reset()
		}
	}
}
