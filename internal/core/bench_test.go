package core

import (
	"testing"

	"alex/internal/synth"
)

// BenchmarkCoreNew times core.New on dbpedia-nytimes with the profile's
// 9 partitions: the feature-space build every alexd start pays, and the
// set-up of the serving benchmark's feedback workload. Data generation
// and the PARIS initial links stay outside the timed loop. -short
// shrinks the world to a tenth.
func BenchmarkCoreNew(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.1
	}
	prof, _ := synth.ProfileByName("dbpedia-nytimes")
	ds := synth.Generate(prof.Scale(scale))
	initial := initialLinks(ds)
	cfg := DefaultConfig()
	cfg.Partitions = prof.Partitions
	b.ReportAllocs()
	b.ResetTimer()
	var filtered int
	for i := 0; i < b.N; i++ {
		sys := New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
		filtered, _ = sys.SpaceSize()
	}
	b.ReportMetric(float64(filtered), "space_links")
}
