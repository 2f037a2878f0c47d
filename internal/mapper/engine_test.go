package mapper

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// equivCase is one (layer, arch, options) search configuration used by the
// parallel-vs-serial equivalence tests.
type equivCase struct {
	name string
	l    workload.Layer
	a    *arch.Arch
	o    Options
}

func equivCases() []equivCase {
	cs := []equivCase{
		{
			name: "casestudy-matmul",
			l:    workload.NewMatMul("m", 32, 64, 64),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: true},
		},
		{
			name: "casestudy-awkward",
			l:    workload.NewMatMul("m", 24, 48, 96),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 3000},
		},
		{
			name: "casestudy-bwunaware",
			l:    workload.NewMatMul("m", 16, 32, 32),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: false},
		},
		{
			name: "inhouse-minedp",
			l:    workload.NewMatMul("m", 16, 64, 64),
			a:    arch.InHouse(),
			o:    Options{Spatial: arch.InHouseSpatial(), BWAware: true, Objective: MinEDP, MaxCandidates: 2000},
		},
		{
			name: "casestudy-minenergy",
			l:    workload.NewMatMul("m", 32, 64, 64),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Objective: MinEnergy, MaxCandidates: 3000},
		},
		{
			name: "casestudy-minedp-bwunaware",
			l:    workload.NewMatMul("m", 24, 48, 96),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: false, Objective: MinEDP, MaxCandidates: 3000},
		},
		{
			name: "tpulike-capped",
			l:    workload.NewMatMul("m", 64, 128, 128),
			a:    arch.TPULike(),
			o:    Options{Spatial: arch.TPULikeSpatial(), BWAware: true, MaxCandidates: 400},
		},
	}
	return cs
}

// TestParallelMatchesSerial is the engine's central contract: for any
// worker count, with and without pruning, Best returns a bit-identical
// score, the same mapping, and the same exact statistics as a serial run.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			ser := tc.o
			ser.Workers = 1
			ser.NoPrune = true // the reference: serial, exhaustive
			refCand, refStats, refErr := Best(context.Background(), &tc.l, tc.a, &ser)

			for _, cfg := range []struct {
				label    string
				workers  int
				noPrune  bool
				noReduce bool
			}{
				{"serial-pruned", 1, false, false},
				{"parallel-2", 2, false, false},
				{"parallel-4", 4, false, false},
				{"parallel-4-noprune", 4, true, false},
				// The symmetry reduction is exact, so disabling it must not
				// move the result either; its stats differ by construction
				// (it walks orderings, not classes), so skip those below.
				{"parallel-4-nosym", 4, false, true},
			} {
				o := tc.o
				o.Workers = cfg.workers
				o.NoPrune = cfg.noPrune
				o.NoReduce = cfg.noReduce
				cand, stats, err := Best(context.Background(), &tc.l, tc.a, &o)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s: err = %v, reference err = %v", cfg.label, err, refErr)
				}
				if err != nil {
					continue
				}
				if cand.Result.CCTotal != refCand.Result.CCTotal {
					t.Errorf("%s: CCTotal = %v, want %v (bit-identical)",
						cfg.label, cand.Result.CCTotal, refCand.Result.CCTotal)
				}
				if cand.Score(tc.o.Objective) != refCand.Score(tc.o.Objective) {
					t.Errorf("%s: score = %v, want %v",
						cfg.label, cand.Score(tc.o.Objective), refCand.Score(tc.o.Objective))
				}
				if got, want := cand.Mapping.Temporal.String(), refCand.Mapping.Temporal.String(); got != want {
					t.Errorf("%s: mapping %s, want %s", cfg.label, got, want)
				}
				if cfg.noReduce {
					continue
				}
				if stats.NestsGenerated != refStats.NestsGenerated ||
					stats.Valid != refStats.Valid ||
					stats.Skipped != refStats.Skipped ||
					stats.SubtreesPruned != refStats.SubtreesPruned {
					t.Errorf("%s: stats {gen %d valid %d skip %d subtrees %d}, want {gen %d valid %d skip %d subtrees %d}",
						cfg.label, stats.NestsGenerated, stats.Valid, stats.Skipped, stats.SubtreesPruned,
						refStats.NestsGenerated, refStats.Valid, refStats.Skipped, refStats.SubtreesPruned)
				}
			}
		})
	}
}

// TestEnergyEDPMatchReference: the energy and EDP searches score on worker
// scratch and prune EDP on E·LB, yet their Best score is bit-identical to the
// minimum Candidate.Score over Enumerate — the materializing reference —
// for both models, on several layer/arch pairs and a capped walk budget.
func TestEnergyEDPMatchReference(t *testing.T) {
	conv := workload.NewConv2D("c", 1, 32, 16, 14, 14, 3, 3)
	cases := []struct {
		name string
		l    workload.Layer
		a    *arch.Arch
		o    Options
	}{
		{"inhouse", workload.NewMatMul("m", 16, 64, 64), arch.InHouse(), Options{Spatial: arch.InHouseSpatial(), MaxCandidates: 2000}},
		{"casestudy", workload.NewMatMul("m", 32, 64, 64), arch.CaseStudy(), Options{Spatial: arch.CaseStudySpatial(), MaxCandidates: 3000}},
		{"tpulike", workload.NewMatMul("m", 64, 128, 128), arch.TPULike(), Options{Spatial: arch.TPULikeSpatial(), MaxCandidates: 3000}},
		{"casestudy-conv-capped", conv, arch.CaseStudy(), Options{Spatial: arch.CaseStudySpatial(), MaxCandidates: 500}},
	}
	for _, tc := range cases {
		for _, ob := range []struct {
			name string
			obj  Objective
		}{{"energy", MinEnergy}, {"edp", MinEDP}} {
			obj := ob.obj
			for _, bw := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/bwaware=%v", tc.name, ob.name, bw), func(t *testing.T) {
					o := tc.o
					o.Objective, o.BWAware = obj, bw
					all, _, err := Enumerate(context.Background(), &tc.l, tc.a, &o)
					if err != nil {
						t.Fatalf("Enumerate: %v", err)
					}
					if len(all) == 0 {
						t.Fatal("Enumerate found no valid mapping")
					}
					want := all[0].Score(obj)
					for _, c := range all[1:] {
						if s := c.Score(obj); s < want {
							want = s
						}
					}
					cand, _, err := Best(context.Background(), &tc.l, tc.a, &o)
					if err != nil {
						t.Fatalf("Best: %v", err)
					}
					if got := cand.Score(obj); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Best score %v, Enumerate minimum %v (want bit-identical)", got, want)
					}
				})
			}
		}
	}
}

// TestEnumerateCanonicalOrder locks the fixed enumeration order: equal-score
// candidates are ordered by their temporal nest rendering, so the returned
// list is identical for any worker count — including the exact order, which
// sort.Slice alone (the old implementation) did not guarantee.
func TestEnumerateCanonicalOrder(t *testing.T) {
	l := workload.NewMatMul("m", 16, 32, 32)
	a := arch.CaseStudy()

	ser := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: 1}
	ref, refStats, err := Enumerate(context.Background(), &l, a, &ser)
	if err != nil {
		t.Fatal(err)
	}
	// The space here has equal-score candidates; otherwise the order test
	// is vacuous.
	hasTie := false
	for i := 1; i < len(ref); i++ {
		if ref[i].Result.CCTotal == ref[i-1].Result.CCTotal {
			hasTie = true
			break
		}
	}
	if !hasTie {
		t.Fatal("test space has no score ties; pick a richer layer")
	}
	for i := 1; i < len(ref); i++ {
		prev, cur := ref[i-1], ref[i]
		if prev.Result.CCTotal > cur.Result.CCTotal {
			t.Fatal("not sorted by score")
		}
		if prev.Result.CCTotal == cur.Result.CCTotal &&
			prev.Mapping.Temporal.String() > cur.Mapping.Temporal.String() {
			t.Fatal("equal-score candidates not in canonical (lexicographic) order")
		}
	}

	for _, workers := range []int{1, 3, 4} {
		o := ser
		o.Workers = workers
		all, stats, err := Enumerate(context.Background(), &l, a, &o)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(ref) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(all), len(ref))
		}
		if *stats != *refStats {
			// Pruned is always 0 for Enumerate, so full struct equality.
			t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, refStats)
		}
		for i := range all {
			if all[i].Result.CCTotal != ref[i].Result.CCTotal ||
				all[i].Mapping.Temporal.String() != ref[i].Mapping.Temporal.String() {
				t.Fatalf("workers=%d: candidate %d is %s (%v), want %s (%v)",
					workers, i,
					all[i].Mapping.Temporal, all[i].Result.CCTotal,
					ref[i].Mapping.Temporal, ref[i].Result.CCTotal)
			}
		}
	}
}

// TestPruneStatsExact checks that pruning never changes what the search
// counts or returns — only Stats.Pruned (trajectory-dependent) may differ —
// and that the prune actually fires on a serial run, where the best-so-far
// tightens exactly as it did in the old engine.
func TestPruneStatsExact(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()

	pruned := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: 1}
	full := pruned
	full.NoPrune = true

	cp, sp, err := Best(context.Background(), &l, a, &pruned)
	if err != nil {
		t.Fatal(err)
	}
	cf, sf, err := Best(context.Background(), &l, a, &full)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Result.CCTotal != cf.Result.CCTotal || cp.Mapping.Temporal.String() != cf.Mapping.Temporal.String() {
		t.Errorf("prune changed the result: %v/%s vs %v/%s",
			cp.Result.CCTotal, cp.Mapping.Temporal, cf.Result.CCTotal, cf.Mapping.Temporal)
	}
	if sp.NestsGenerated != sf.NestsGenerated || sp.Valid != sf.Valid || sp.Skipped != sf.Skipped {
		t.Errorf("prune changed exact stats: %+v vs %+v", sp, sf)
	}
	if sf.Pruned != 0 {
		t.Errorf("NoPrune run reports Pruned = %d", sf.Pruned)
	}
	if sp.Pruned == 0 {
		t.Error("prune never fired on a space where the bound is informative")
	}
	if sp.Pruned >= sp.Valid {
		t.Errorf("pruned %d of %d valid — bound fired on everything", sp.Pruned, sp.Valid)
	}
}

// TestMaxCandidatesCapParallel pins the cap semantics under concurrency:
// the WALK (orderings visited) stops exactly at the budget with the true
// remainder in Skipped, identically for any worker count; under NoReduce
// every walked ordering is also generated, so the old exact-cap behaviour
// is recovered.
func TestMaxCandidatesCapParallel(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()
	for _, workers := range []int{1, 4} {
		for _, noReduce := range []bool{false, true} {
			o := Options{Spatial: arch.CaseStudySpatial(), BWAware: true,
				MaxCandidates: 40, Workers: workers, NoReduce: noReduce}
			_, stats, err := Best(context.Background(), &l, a, &o)
			if err != nil {
				t.Fatal(err)
			}
			if walked := stats.NestsGenerated + stats.ClassesMerged; walked != 40 {
				t.Errorf("workers=%d nosym=%v: walked %d, want exactly the budget 40",
					workers, noReduce, walked)
			}
			if noReduce && stats.NestsGenerated != 40 {
				t.Errorf("workers=%d: NoReduce generated %d, want 40", workers, stats.NestsGenerated)
			}
			if stats.Skipped == 0 {
				t.Errorf("workers=%d nosym=%v: cap hit but Skipped == 0", workers, noReduce)
			}
		}
	}
}

// TestLowerBoundAdmissible validates the branch-and-bound invariant the
// prune rests on, candidate by candidate: the bandwidth-unaware baseline
// score never exceeds the full model's CCTotal.
func TestLowerBoundAdmissible(t *testing.T) {
	l := workload.NewMatMul("m", 24, 48, 96)
	a := arch.CaseStudy()
	aware := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 2000, Workers: 1}
	unaware := aware
	unaware.BWAware = false

	full, _, err := Enumerate(context.Background(), &l, a, &aware)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := Enumerate(context.Background(), &l, a, &unaware)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(base) {
		t.Fatalf("candidate sets differ: %d vs %d", len(full), len(base))
	}
	// Index the baseline by mapping: the two enumerations sort differently.
	baseCC := make(map[string]float64, len(base))
	for _, c := range base {
		baseCC[c.Mapping.Temporal.String()] = c.Result.CCTotal
	}
	for _, c := range full {
		lb, ok := baseCC[c.Mapping.Temporal.String()]
		if !ok {
			t.Fatalf("mapping %s missing from baseline enumeration", c.Mapping.Temporal)
		}
		if lb > c.Result.CCTotal {
			t.Fatalf("bound not admissible for %s: baseline %v > full %v",
				c.Mapping.Temporal, lb, c.Result.CCTotal)
		}
	}
}

// TestAnnealParallelRestartsMatchSerial pins the annealer's restart merge:
// forcing the restarts through the shared pool cannot change the result
// because each chain is independently seeded and the merge is by restart
// order.
func TestAnnealParallelRestartsMatchSerial(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()
	opt := &AnnealOptions{
		Spatial:    arch.CaseStudySpatial(),
		BWAware:    true,
		Iterations: 300,
		Restarts:   4,
		Seed:       7,
	}
	c1, err := Anneal(context.Background(), &l, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Anneal(context.Background(), &l, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Result.CCTotal != c2.Result.CCTotal || c1.Mapping.Temporal.String() != c2.Mapping.Temporal.String() {
		t.Errorf("anneal not reproducible: %v/%s vs %v/%s",
			c1.Result.CCTotal, c1.Mapping.Temporal, c2.Result.CCTotal, c2.Mapping.Temporal)
	}
}

// TestBestWorkersValidation covers the degenerate worker counts.
func TestBestWorkersValidation(t *testing.T) {
	l := workload.NewMatMul("m", 16, 32, 32)
	a := arch.CaseStudy()
	var want string
	for i, workers := range []int{0, 1, 2, 16} {
		o := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: workers}
		cand, _, err := Best(context.Background(), &l, a, &o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fmt.Sprintf("%s@%v", cand.Mapping.Temporal, cand.Result.CCTotal)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: %s, want %s", workers, got, want)
		}
	}
}
