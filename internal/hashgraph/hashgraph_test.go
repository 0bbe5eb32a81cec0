package hashgraph

import (
	"math"
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/rng"
)

func TestBasicAccumulateGather(t *testing.T) {
	h := New(8)
	h.Accumulate(2, 1.5)
	h.Accumulate(1, 1.0)
	h.Accumulate(2, 0.5)
	got := h.Gather(nil)
	if len(got) != 2 {
		t.Fatalf("gathered %v", got)
	}
	sum := map[uint32]float64{}
	for _, kv := range got {
		sum[kv.Key] += kv.Value
	}
	if sum[1] != 1.0 || sum[2] != 2.0 {
		t.Fatalf("merge wrong: %v", got)
	}
	st := h.Stats()
	if st.Accumulates != 3 || st.Hits != 1 || st.Misses != 2 || st.Inserts != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.BinnedKV != 3 || st.ScatteredKV != 3 || st.BinMergedKV != 1 {
		t.Fatalf("resolve stats %+v", st)
	}
	if st.ChainHops != 0 || st.Rehashes != 0 {
		t.Fatalf("probe-free table reported chain/rehash events: %+v", st)
	}
}

func TestLookup(t *testing.T) {
	h := New(4)
	h.Accumulate(7, 2.0)
	h.Accumulate(7, 3.0)
	h.Accumulate(9, 1.0)
	if v, ok := h.Lookup(7); !ok || v != 5.0 {
		t.Fatalf("Lookup(7) = %v, %v", v, ok)
	}
	if _, ok := h.Lookup(8); ok {
		t.Fatal("Lookup(8) found a phantom key")
	}
	// Accumulate after a resolve must re-resolve on the next read.
	h.Accumulate(8, 4.0)
	if v, ok := h.Lookup(8); !ok || v != 4.0 {
		t.Fatalf("Lookup(8) after re-accumulate = %v, %v", v, ok)
	}
	if v, ok := h.Lookup(7); !ok || v != 5.0 {
		t.Fatalf("Lookup(7) after re-resolve = %v, %v", v, ok)
	}
	st := h.Stats()
	// Hits/Misses must not double count across the two resolves.
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("re-resolve double-counted hits/misses: %+v", st)
	}
}

func TestResetReuse(t *testing.T) {
	h := New(4)
	for session := 0; session < 10; session++ {
		for i := 0; i < 50; i++ {
			h.Accumulate(uint32(i%13), 1.0)
		}
		got := h.Gather(nil)
		if len(got) != 13 {
			t.Fatalf("session %d: %d keys, want 13", session, len(got))
		}
		h.Reset()
		if out := h.Gather(nil); len(out) != 0 {
			t.Fatalf("session %d: reset table still holds %v", session, out)
		}
		if _, ok := h.Lookup(1); ok {
			t.Fatalf("session %d: reset table still resolves keys", session)
		}
	}
}

// TestSteadyStateAllocationFree: once buffers have grown to the session
// shape, accumulate → gather → reset cycles must not allocate — the
// contract that keeps the kernel hot loop allocation-free.
func TestSteadyStateAllocationFree(t *testing.T) {
	h := New(1) // deliberately undersized: growth must still converge
	dst := make([]accum.KV, 0, 256)
	session := func() {
		for i := 0; i < 200; i++ {
			h.Accumulate(uint32(i%37), 0.5)
		}
		dst = h.Gather(dst[:0])
		h.Reset()
	}
	for i := 0; i < 5; i++ {
		session() // warm up: grow buf, kv, and bin arrays
	}
	if avg := testing.AllocsPerRun(20, session); avg != 0 {
		t.Fatalf("steady-state session allocates %.1f times", avg)
	}
}

// TestGatherOrderDeterministic: the gather order must be a pure function of
// the accumulate sequence, stable across instances and repeats.
func TestGatherOrderDeterministic(t *testing.T) {
	r := rng.New(7)
	keys := make([]uint32, 500)
	for i := range keys {
		keys[i] = uint32(r.Uint64() % 97)
	}
	run := func() []accum.KV {
		h := New(16)
		for i, k := range keys {
			h.Accumulate(k, float64(i%5)+0.25)
		}
		return h.Gather(nil)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gather order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestOracleLargeSessions drives sessions past several bin-count growth
// steps and checks exact agreement with the map oracle.
func TestOracleLargeSessions(t *testing.T) {
	r := rng.New(42)
	h := New(2)
	for _, n := range []int{1, 3, 17, 100, 1000, 5000} {
		oracle := map[uint32]float64{}
		for i := 0; i < n; i++ {
			k := uint32(r.Uint64() % uint64(n/2+1))
			v := float64(i%11) + 0.125
			h.Accumulate(k, v)
			oracle[k] += v
		}
		got := h.Gather(nil)
		if len(got) != len(oracle) {
			t.Fatalf("n=%d: %d keys gathered, oracle has %d", n, len(got), len(oracle))
		}
		for _, kv := range got {
			if math.Abs(kv.Value-oracle[kv.Key]) > 1e-9*math.Abs(oracle[kv.Key])+1e-12 {
				t.Fatalf("n=%d key %d: %g vs oracle %g", n, kv.Key, kv.Value, oracle[kv.Key])
			}
		}
		h.Reset()
	}
}

func TestStatsBookkeeping(t *testing.T) {
	h := New(8)
	for i := 0; i < 30; i++ {
		h.Accumulate(uint32(i%10), 1)
	}
	h.Gather(nil)
	st := h.Stats()
	if st.Hits+st.Misses != st.Accumulates {
		t.Fatalf("hits %d + misses %d != accumulates %d", st.Hits, st.Misses, st.Accumulates)
	}
	if st.BinnedKV != st.ScatteredKV {
		t.Fatalf("pass-1 binned %d != pass-2 scattered %d", st.BinnedKV, st.ScatteredKV)
	}
	if st.BinMergedKV != st.Hits {
		t.Fatalf("merged duplicates %d != hits %d", st.BinMergedKV, st.Hits)
	}
	if st.GatheredKV != st.Misses {
		t.Fatalf("gathered %d != distinct keys %d", st.GatheredKV, st.Misses)
	}
}
