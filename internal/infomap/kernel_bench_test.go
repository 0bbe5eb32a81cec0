package infomap

import (
	"context"
	"fmt"
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
)

// BenchmarkKernelFindBestCommunity times one FindBestCommunity sweep — every
// vertex's accumulate, gather and candidate scan, no commit — on a directed
// R-MAT graph at scale 11 (2048 vertices, the serve-cold shape) with one
// worker, once per accumulator backend. The partition is the singleton one
// a run starts from, so every neighbour is a candidate module.
func BenchmarkKernelFindBestCommunity(b *testing.B) {
	g, err := gen.RMAT(11, 8, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pr, err := pagerank.ComputeContext(context.Background(), g, pagerank.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	flow, err := mapeq.NewDirectedFlow(g, pr.Rank, pagerank.DefaultConfig().Damping)
	if err != nil {
		b.Fatal(err)
	}
	membership := make([]uint32, g.N())
	order := make([]uint32, g.N())
	for i := range membership {
		membership[i] = uint32(i)
		order[i] = uint32(i)
	}
	st, err := mapeq.NewState(flow, membership, g.N())
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []AccumKind{Baseline, GoMap, HashGraph, ASA} {
		b.Run(kind.String(), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Kind = kind
			w, err := NewScanner(opt, g.MaxDegree())
			if err != nil {
				b.Fatal(err)
			}
			var props []proposal
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				props = w.evaluateBlock(st, flow, order, 0, len(order), 0, props[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order)), "ns/vertex")
		})
	}
}

// BenchmarkSortKVHub covers sortKV from the tiny candidate lists of ordinary
// vertices up to degree-10⁴ hubs, where the former pure insertion sort went
// quadratic (the O(d²) satellite fix of the scheduler PR).
func BenchmarkSortKVHub(b *testing.B) {
	for _, n := range []int{8, 64, 1024, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n))
			src := make([]accum.KV, n)
			for i := range src {
				src[i] = accum.KV{Key: uint32(r.Uint64() >> 32), Value: 1}
			}
			buf := make([]accum.KV, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				sortKV(buf)
			}
		})
	}
}

// TestSortKVAboveThreshold pins that the SortFunc path sorts correctly and
// agrees with the insertion-sort path.
func TestSortKVAboveThreshold(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{0, 1, sortKVThreshold, sortKVThreshold + 1, 500} {
		kvs := make([]accum.KV, n)
		for i := range kvs {
			kvs[i] = accum.KV{Key: uint32(r.Uint64()>>32) % 64, Value: float64(i)}
		}
		sortKV(kvs)
		for i := 1; i < len(kvs); i++ {
			if kvs[i-1].Key > kvs[i].Key {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}
