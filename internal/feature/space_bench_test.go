package feature

import (
	"testing"

	"alex/internal/synth"
)

// BenchmarkSpaceBuild measures feature-space construction on the
// largest synth profile (dbpedia-opencyc). Options.Workers follows
// GOMAXPROCS, so each -cpu value up to the core count is one point on
// the speedup curve (make bench-space writes the rows to
// BENCH_space.json). Each build includes its signature table, as every
// core.New does.
func BenchmarkSpaceBuild(b *testing.B) {
	scale := 0.25
	if testing.Short() {
		scale = 0.05
	}
	prof, _ := synth.ProfileByName("dbpedia-opencyc")
	ds := synth.Generate(prof.Scale(scale))
	opts := Options{Theta: DefaultTheta}
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		sp := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, opts)
		total = sp.TotalPairs
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}
