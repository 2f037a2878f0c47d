package mapper

import (
	"context"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// BenchmarkGenerateOnly isolates the generator — the enumeration walk,
// signature dedup and subtree bound, with the evaluation pipeline stubbed
// out — so the cost of producing the candidate stream can be tracked
// separately from the cost of scoring it. The pair exposes the reduction's
// trade: signatures make the walk itself more expensive (one boundary
// assignment + product encoding per ordering), and pay for it by shrinking
// the emitted stream ~9x — cheap dedup work replacing expensive Step-1/2/3
// evaluations. Track both: a signature-cost regression shows up here long
// before it shows up in the end-to-end search number.
func BenchmarkGenerateOnly(b *testing.B) {
	layer := workload.NewMatMul("gen", 128, 128, 128)
	hw := arch.CaseStudy()
	for _, bb := range []struct {
		name     string
		noReduce bool
	}{{"reduced", false}, {"nosym", true}} {
		b.Run(bb.name, func(b *testing.B) {
			o := Options{
				Spatial: arch.CaseStudySpatial(), BWAware: true,
				MaxCandidates: 20000, NoReduce: bb.noReduce,
			}
			on := o.normalized()
			b.ReportAllocs()
			b.ResetTimer()
			var emitted int
			for i := 0; i < b.N; i++ {
				e := &engine{ctx: context.Background(), l: &layer, a: hw, o: &on, mode: modeBest}
				e.genPrune = true
				e.bestBits.Store(math.Float64bits(math.Inf(1)))
				var st Stats
				emitted = 0
				e.generate(&st, newCanonicalizer(&layer, hw, on.Spatial), func(job) { emitted++ })
			}
			b.ReportMetric(float64(emitted), "nests-emitted")
		})
	}
}
