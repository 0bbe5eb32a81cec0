package dist

import (
	"testing"

	"github.com/asamap/asamap/internal/dataset"
)

// BenchmarkDistRun times one distributed run in X7's quick shape: the
// Amazon replica at the quick experiments' scale divisor (16× the
// replica's default), 4 ranks, seed 1. Every rank
// proposal goes through the shared candidate scan, so allocs/op tracks
// what a scan costs per evaluated vertex.
func BenchmarkDistRun(b *testing.B) {
	spec, err := dataset.ByName("Amazon")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(spec.DefaultScale*16, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Ranks = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}
