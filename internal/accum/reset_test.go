package accum_test

import (
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/hashgraph"
	"github.com/asamap/asamap/internal/hashtab"
)

// hubKeys is the size of the hub session that grows each backend's table:
// 1<<20 distinct keys, far beyond any capacity hint.
const hubKeys = 1 << 20

// maxResetRatio bounds how much slower a one-key session may run on a table
// a hub session has grown than on a fresh small one. A Reset that clears the
// whole table scales with capacity, a ratio in the thousands.
const maxResetRatio = 8

// bucketCounter is implemented by the backends whose capacity is visible.
type bucketCounter interface{ BucketCount() int }

// TestResetCostBoundedBySession pins the Accumulator.Reset contract for
// every backend: a Reset costs O(entries of the session it ends), never
// O(capacity). It times a one-key session (Accumulate, Lookup, Gather,
// Reset — the kernel's sequence) on a table built with hint 16 and on one a
// hub session has grown to hubKeys entries, and fails if the grown table is
// more than maxResetRatio times slower. Reset must also leave the bucket
// count and every Stats counter but Resets unchanged.
func TestResetCostBoundedBySession(t *testing.T) {
	if testing.Short() {
		t.Skip("times each backend for several seconds")
	}
	backends := []struct {
		name string
		new  func(hint int) accum.Accumulator
	}{
		{"softhash", func(hint int) accum.Accumulator { return hashtab.New(hint) }},
		{"gomap", func(hint int) accum.Accumulator { return accum.NewMap(hint) }},
		{"hashgraph", func(hint int) accum.Accumulator { return hashgraph.New(hint) }},
		{"asa", func(int) accum.Accumulator { return asa.MustNew(asa.DefaultConfig()) }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			small := be.new(16)
			grown := be.new(16)
			buf := make([]accum.KV, 0, hubKeys)
			for k := uint32(0); k < hubKeys; k++ {
				grown.Accumulate(k*7, 1)
			}
			buf = grown.Gather(buf[:0])
			if len(buf) != hubKeys {
				t.Fatalf("hub session gathered %d keys, want %d", len(buf), hubKeys)
			}
			checkReset(t, grown)
			if bc, ok := grown.(bucketCounter); ok && bc.BucketCount() < hubKeys {
				t.Fatalf("hub session left %d buckets, want >= %d", bc.BucketCount(), hubKeys)
			}

			session := func(a accum.Accumulator) {
				a.Accumulate(3, 1)
				a.Lookup(3)
				buf = a.Gather(buf[:0])
				a.Reset()
			}
			nsPerSession := func(a accum.Accumulator) float64 {
				r := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						session(a)
					}
				})
				return float64(r.T.Nanoseconds()) / float64(r.N)
			}
			base, big := nsPerSession(small), nsPerSession(grown)
			t.Logf("one-key session: %.1f ns fresh, %.1f ns grown", base, big)
			if ratio := big / base; ratio > maxResetRatio {
				t.Fatalf("one-key session costs %.1f ns on the grown table vs %.1f ns fresh (%.0fx > %dx): Reset scales with capacity",
					big, base, ratio, maxResetRatio)
			}
			session(grown)
			checkReset(t, grown)
		})
	}
}

// checkReset Resets a and fails unless the bucket count and every Stats
// counter except Resets are what they were before, and the table is empty.
func checkReset(t *testing.T, a accum.Accumulator) {
	t.Helper()
	before := a.Stats()
	bc, hasBuckets := a.(bucketCounter)
	var buckets int
	if hasBuckets {
		buckets = bc.BucketCount()
	}
	a.Reset()
	after := a.Stats()
	before.Resets++
	if after != before {
		t.Fatalf("Reset changed stats:\n before %+v\n after  %+v", before, after)
	}
	if hasBuckets && bc.BucketCount() != buckets {
		t.Fatalf("Reset changed the bucket count from %d to %d", buckets, bc.BucketCount())
	}
	if _, ok := a.Lookup(3); ok {
		t.Fatal("Reset left key 3 behind")
	}
	if kvs := a.Gather(nil); len(kvs) != 0 {
		t.Fatalf("Reset left %d entries", len(kvs))
	}
}
