package cachesim

import (
	"testing"

	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/rng"
)

func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeKB: 0, Assoc: 1, LineSize: 64},
		{SizeKB: 32, Assoc: 0, LineSize: 64},
		{SizeKB: 32, Assoc: 8, LineSize: 48}, // not power of two
		{SizeKB: 32, Assoc: 7, LineSize: 64}, // lines not divisible
		{SizeKB: 3, Assoc: 8, LineSize: 64},  // sets not power of two (3KB/64/8 = 6)
	}
	for i, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestLineReuse(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeKB: 32, Assoc: 8, LineSize: 64, Latency: 4})
	// 8-byte strides within one line: 1 miss then 7 hits per line.
	for addr := uint64(0); addr < 64*100; addr += 8 {
		c.Access(addr)
	}
	if c.Misses() != 100 {
		t.Fatalf("misses = %d, want 100 (one per line)", c.Misses())
	}
	if c.hits != 700 {
		t.Fatalf("hits = %d, want 700", c.hits)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way, 2 sets of 64B lines: 256B total.
	c := mustCache(t, CacheConfig{SizeKB: 1, Assoc: 2, LineSize: 64, Latency: 1})
	sets := c.sets
	// Three distinct lines mapping to set 0: A, B, C.
	stride := uint64(sets * 64)
	a, b, cc := uint64(0), stride, 2*stride
	c.Access(a)  // miss
	c.Access(b)  // miss
	c.Access(a)  // hit, A is MRU
	c.Access(cc) // miss, evicts B (LRU)
	if !c.Access(a) {
		t.Fatal("A should still be cached")
	}
	if c.Access(b) {
		t.Fatal("B should have been evicted by LRU")
	}
}

func TestWorkingSetFitsLowerLevel(t *testing.T) {
	h, err := NewHierarchy(16)
	if err != nil {
		t.Fatal(err)
	}
	// 128KB working set: misses L1 (32KB), fits L2 (256KB).
	ws := uint64(128 * 1024)
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < ws; addr += 64 {
			h.Access(addr)
		}
	}
	// Pass 2 and 3 should hit in L2: L1 miss rate stays high, deep miss
	// rate (to DRAM) falls to ~1/3 (only the first pass missed everywhere).
	if h.BeyondL1MissRate() < 0.5 {
		t.Fatalf("L1 miss rate %.2f; 128KB set should thrash 32KB L1", h.BeyondL1MissRate())
	}
	if h.DeepMissRate() > 0.5 {
		t.Fatalf("deep miss rate %.2f; L2 should capture the reuse", h.DeepMissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(16)
	if err != nil {
		t.Fatal(err)
	}
	if lat := h.Access(0); lat != 200 {
		t.Fatalf("cold access latency %d, want 200 (DRAM)", lat)
	}
	if lat := h.Access(0); lat != 4 {
		t.Fatalf("hot access latency %d, want 4 (L1)", lat)
	}
	if h.Accesses() != 2 {
		t.Fatalf("accesses = %d", h.Accesses())
	}
	if h.AvgLatency() != 102 {
		t.Fatalf("avg latency = %g, want 102", h.AvgLatency())
	}
}

func TestEmptyRates(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeKB: 32, Assoc: 8, LineSize: 64})
	if c.MissRate() != 0 {
		t.Fatal("idle cache should report 0 miss rate")
	}
	h, _ := NewHierarchy(16)
	if h.DeepMissRate() != 0 {
		t.Fatal("idle hierarchy should report 0 deep miss rate")
	}
}

// TestHashTableTraceBehaviour is the paper's memory argument made
// measurable: a collision-heavy hash workload must generate more memory
// traffic and worse locality than a collision-free one over the same
// number of operations.
func TestHashTableTraceBehaviour(t *testing.T) {
	run := func(collide bool) (accesses uint64, avgLat float64) {
		h, err := NewHierarchy(16)
		if err != nil {
			t.Fatal(err)
		}
		tab := hashtab.New(8)
		tab.SetTracer(func(addr uint64) { h.Access(addr) })
		r := rng.New(7)
		for vertex := 0; vertex < 3000; vertex++ {
			deg := 40
			for i := 0; i < deg; i++ {
				var key uint32
				if collide {
					// Keys congruent modulo the bucket count collide.
					key = uint32(i) * uint32(tab.BucketCount())
				} else {
					key = uint32(r.Intn(deg))
				}
				tab.Accumulate(key, 1)
			}
			tab.Reset()
		}
		return h.Accesses(), h.AvgLatency()
	}
	collAcc, _ := run(true)
	freeAcc, _ := run(false)
	if collAcc <= freeAcc {
		t.Fatalf("collision workload touched %d addresses, collision-free %d; chains must add traffic",
			collAcc, freeAcc)
	}
}

// TestTraceDisabledByDefault: without a tracer the table must not panic and
// behave identically.
func TestTraceDisabledByDefault(t *testing.T) {
	tab := hashtab.New(8)
	tab.Accumulate(1, 1)
	if v, ok := tab.Lookup(1); !ok || v != 1 {
		t.Fatal("table broken without tracer")
	}
	tab.SetTracer(nil)
	tab.Accumulate(2, 1)
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(16)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		h.Access(r.Uint64() & 0xffffff)
	}
}

func TestQuickCacheInvariants(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeKB: 4, Assoc: 4, LineSize: 64, Latency: 1})
	r := rng.New(31)
	for i := 0; i < 20000; i++ {
		c.Access(r.Uint64() & 0xfffff)
		if c.hits+c.Misses() != uint64(i+1) {
			t.Fatalf("hits+misses != accesses at %d", i)
		}
	}
	if mr := c.MissRate(); mr < 0 || mr > 1 {
		t.Fatalf("miss rate %g out of [0,1]", mr)
	}
	// A random working set far larger than the cache must miss a lot.
	if c.MissRate() < 0.5 {
		t.Fatalf("1MB random set over 4KB cache missed only %.2f", c.MissRate())
	}
}
