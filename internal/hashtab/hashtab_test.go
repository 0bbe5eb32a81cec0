package hashtab

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/rng"
)

func gathered(t *Table) []accum.KV {
	out := t.Gather(nil)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func TestBasicAccumulate(t *testing.T) {
	h := New(4)
	h.Accumulate(3, 1)
	h.Accumulate(3, 2)
	h.Accumulate(9, 5)
	got := gathered(h)
	if len(got) != 2 || got[0] != (accum.KV{Key: 3, Value: 3}) || got[1] != (accum.KV{Key: 9, Value: 5}) {
		t.Fatalf("got %v", got)
	}
	st := h.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Inserts != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCollisionChains(t *testing.T) {
	h := New(1) // 13 buckets
	bc := uint32(h.BucketCount())
	// Keys congruent mod bucket count collide deliberately (identity hash).
	h.Accumulate(1, 1)
	h.Accumulate(1+bc, 1)
	h.Accumulate(1+2*bc, 1)
	// Probing the last key must walk the chain.
	before := h.Stats().ChainHops
	h.Accumulate(1, 1) // head or deep, must find it
	if len(h.entries) != 3 {
		t.Fatalf("Len = %d", len(h.entries))
	}
	st := h.Stats()
	if st.ChainHops == 0 {
		t.Fatal("no chain hops recorded despite forced collisions")
	}
	_ = before
	got := gathered(h)
	if len(got) != 3 {
		t.Fatalf("gathered %v", got)
	}
}

func TestRehashGrowth(t *testing.T) {
	h := New(1)
	start := h.BucketCount()
	for i := 0; i < 100; i++ {
		h.Accumulate(uint32(i*7), 1)
	}
	if h.BucketCount() <= start {
		t.Fatalf("bucket count did not grow: %d", h.BucketCount())
	}
	if h.Stats().Rehashes == 0 {
		t.Fatal("no rehash events recorded")
	}
	if len(h.entries) != 100 {
		t.Fatalf("Len = %d after rehash", len(h.entries))
	}
	// All values intact after rehash.
	for _, kv := range gathered(h) {
		if kv.Value != 1 {
			t.Fatalf("value lost in rehash: %v", kv)
		}
	}
}

func TestResetKeepsBuckets(t *testing.T) {
	h := New(1)
	for i := 0; i < 50; i++ {
		h.Accumulate(uint32(i), 1)
	}
	grown := h.BucketCount()
	h.Reset()
	if len(h.entries) != 0 {
		t.Fatal("Reset left entries")
	}
	if h.BucketCount() != grown {
		t.Fatal("Reset shrank the bucket array (unordered_map::clear keeps it)")
	}
	h.Accumulate(5, 2)
	got := gathered(h)
	if len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("stale value after reset: %v", got)
	}
}

func TestOracleEquivalence(t *testing.T) {
	h := New(4)
	r := rng.New(11)
	for round := 0; round < 30; round++ {
		oracle := map[uint32]float64{}
		n := r.Intn(500) + 1
		for i := 0; i < n; i++ {
			k := uint32(r.Intn(80))
			v := r.Float64() - 0.25
			h.Accumulate(k, v)
			oracle[k] += v
		}
		got := gathered(h)
		if len(got) != len(oracle) {
			t.Fatalf("round %d: %d keys vs oracle %d", round, len(got), len(oracle))
		}
		for _, kv := range got {
			if math.Abs(kv.Value-oracle[kv.Key]) > 1e-9 {
				t.Fatalf("key %d: %g vs %g", kv.Key, kv.Value, oracle[kv.Key])
			}
		}
		h.Reset()
	}
}

func TestQuickOracle(t *testing.T) {
	h := New(2)
	f := func(keys []uint16) bool {
		h.Reset()
		oracle := map[uint32]float64{}
		for _, k := range keys {
			h.Accumulate(uint32(k), 1)
			oracle[uint32(k)]++
		}
		got := h.Gather(nil)
		if len(got) != len(oracle) {
			return false
		}
		for _, kv := range got {
			if kv.Value != oracle[kv.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var a accum.Accumulator = New(8)
	a.Accumulate(1, 1)
	if got := a.Gather(nil); len(got) != 1 {
		t.Fatalf("gather via interface: %v", got)
	}
}

func TestGatherAppends(t *testing.T) {
	h := New(4)
	h.Accumulate(1, 1)
	pre := []accum.KV{{Key: 99, Value: 9}}
	out := h.Gather(pre)
	if len(out) != 2 || out[0].Key != 99 {
		t.Fatalf("Gather must append: %v", out)
	}
}

func BenchmarkAccumulate(b *testing.B) {
	h := New(64)
	for i := 0; i < b.N; i++ {
		h.Accumulate(uint32(i&1023), 1)
	}
}
