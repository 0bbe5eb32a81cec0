package asa

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/rng"
)

func smallCAM(t *testing.T, entries int) *CAM {
	t.Helper()
	c, err := New(Config{CapacityBytes: entries * 16, EntryBytes: 16, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gathered(c *CAM) []accum.KV {
	out := c.Gather(nil)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{CapacityBytes: 8, EntryBytes: 16}); err == nil {
		t.Fatal("capacity < one entry accepted")
	}
	if _, err := New(Config{CapacityBytes: 1024, EntryBytes: 4}); err == nil {
		t.Fatal("tiny entries accepted")
	}
	if _, err := New(Config{CapacityBytes: 1024, EntryBytes: 16, Policy: Policy(99)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if DefaultConfig().Entries() != 512 {
		t.Fatalf("default entries = %d, want 512", DefaultConfig().Entries())
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Fatal("policy names wrong")
	}
	if Policy(42).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
}

func TestBasicAccumulateNoOverflow(t *testing.T) {
	c := smallCAM(t, 8)
	c.Accumulate(5, 1.5)
	c.Accumulate(7, 2.0)
	c.Accumulate(5, 0.5)
	got := gathered(c)
	want := []accum.KV{{Key: 5, Value: 2.0}, {Key: 7, Value: 2.0}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOverflowAndMerge(t *testing.T) {
	c := smallCAM(t, 2)
	// Three distinct keys in a 2-entry CAM force one eviction.
	c.Accumulate(1, 1)
	c.Accumulate(2, 1)
	c.Accumulate(3, 1) // evicts key 1 (LRU)
	if len(c.overflow) != 1 {
		t.Fatalf("overflow len = %d, want 1", len(c.overflow))
	}
	// Touch key 1 again: it re-enters the CAM as a fresh partial sum.
	c.Accumulate(1, 5)
	got := gathered(c)
	want := []accum.KV{{Key: 1, Value: 6}, {Key: 2, Value: 1}, {Key: 3, Value: 1}}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].Key != want[i].Key || math.Abs(got[i].Value-want[i].Value) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if c.Stats().Evictions < 1 {
		t.Fatal("no evictions counted")
	}
	if c.Stats().MergedKV == 0 {
		t.Fatal("merge path not exercised")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := smallCAM(t, 2)
	c.Accumulate(1, 1)
	c.Accumulate(2, 1)
	c.Accumulate(1, 1) // key 1 becomes MRU
	c.Accumulate(3, 1) // must evict key 2
	non, over := c.GatherCAM(nil, nil)
	keys := map[uint32]bool{}
	for _, kv := range non {
		keys[kv.Key] = true
	}
	if !keys[1] || !keys[3] || keys[2] {
		t.Fatalf("CAM contents %v; want keys 1 and 3", non)
	}
	if len(over) != 1 || over[0].Key != 2 || over[0].Value != 1 {
		t.Fatalf("overflow %v; want key 2", over)
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	c, err := New(Config{CapacityBytes: 32, EntryBytes: 16, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	c.Accumulate(1, 1)
	c.Accumulate(2, 1)
	c.Accumulate(1, 1) // hit does NOT refresh under FIFO
	c.Accumulate(3, 1) // must evict key 1 (oldest insertion)
	_, over := c.GatherCAM(nil, nil)
	if len(over) != 1 || over[0].Key != 1 {
		t.Fatalf("FIFO evicted %v, want key 1", over)
	}
}

func TestRandomPolicyStaysCorrect(t *testing.T) {
	c, err := New(Config{CapacityBytes: 64, EntryBytes: 16, Policy: Random})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	oracle := map[uint32]float64{}
	for i := 0; i < 500; i++ {
		k := uint32(r.Intn(40))
		v := r.Float64()
		c.Accumulate(k, v)
		oracle[k] += v
	}
	compareWithOracle(t, gathered(c), oracle)
}

func compareWithOracle(t *testing.T, got []accum.KV, oracle map[uint32]float64) {
	t.Helper()
	if len(got) != len(oracle) {
		t.Fatalf("got %d keys, oracle has %d", len(got), len(oracle))
	}
	for _, kv := range got {
		want, ok := oracle[kv.Key]
		if !ok {
			t.Fatalf("unexpected key %d", kv.Key)
		}
		if math.Abs(kv.Value-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("key %d: got %g, want %g", kv.Key, kv.Value, want)
		}
	}
}

// TestOracleEquivalence is the central functional property: under heavy
// eviction pressure the ASA gather+merge result must be identical (up to
// float rounding) to a plain map accumulation.
func TestOracleEquivalence(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 8, 64} {
		c := smallCAM(t, entries)
		r := rng.New(uint64(entries) * 31)
		for round := 0; round < 20; round++ {
			oracle := map[uint32]float64{}
			nOps := r.Intn(300) + 1
			for i := 0; i < nOps; i++ {
				k := uint32(r.Intn(50))
				v := r.Float64() - 0.3
				c.Accumulate(k, v)
				oracle[k] += v
			}
			compareWithOracle(t, gathered(c), oracle)
			c.Reset()
			if c.used != 0 || len(c.overflow) != 0 {
				t.Fatal("Reset left residue")
			}
		}
	}
}

func TestQuickOracleEquivalence(t *testing.T) {
	c := smallCAM(t, 4)
	f := func(keys []uint8, seed uint16) bool {
		c.Reset()
		oracle := map[uint32]float64{}
		r := rng.New(uint64(seed))
		for _, k8 := range keys {
			k := uint32(k8 % 16)
			v := r.Float64()
			c.Accumulate(k, v)
			oracle[k] += v
		}
		got := gathered(c)
		if len(got) != len(oracle) {
			return false
		}
		for _, kv := range got {
			if math.Abs(kv.Value-oracle[kv.Key]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResetGenerationWrap(t *testing.T) {
	c := smallCAM(t, 2)
	c.curGen = ^uint32(0) - 1 // force a wrap within two resets
	c.Accumulate(1, 1)
	c.Reset()
	c.Accumulate(2, 2)
	c.Reset()
	c.Accumulate(3, 3)
	got := gathered(c)
	if len(got) != 1 || got[0].Key != 3 || got[0].Value != 3 {
		t.Fatalf("after generation wrap: %v", got)
	}
}

func TestHeavyEvictionChurn(t *testing.T) {
	// Degree >> capacity: every distinct key after the first two evicts.
	c := smallCAM(t, 2)
	oracle := map[uint32]float64{}
	for i := 0; i < 1000; i++ {
		k := uint32(i % 97)
		c.Accumulate(k, 1)
		oracle[k] += 1
	}
	compareWithOracle(t, gathered(c), oracle)
	if c.Stats().Evictions < 900 {
		t.Fatalf("only %d evictions under churn", c.Stats().Evictions)
	}
}

func TestGatherCAMSeparatesBuffers(t *testing.T) {
	c := smallCAM(t, 2)
	c.Accumulate(1, 1)
	c.Accumulate(2, 1)
	c.Accumulate(3, 1)
	non, over := c.GatherCAM(nil, nil)
	if len(non) != 2 || len(over) != 1 {
		t.Fatalf("non=%d over=%d, want 2/1", len(non), len(over))
	}
	merged := c.SortAndMerge(non, over)
	if len(merged) != 3 {
		t.Fatalf("merged %d keys, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Key >= merged[i].Key {
			t.Fatal("merged output not sorted")
		}
	}
}

func TestSortAndMergeEmptyOverflow(t *testing.T) {
	c := smallCAM(t, 4)
	non := []accum.KV{{Key: 2, Value: 1}, {Key: 1, Value: 1}}
	out := c.SortAndMerge(non, nil)
	if len(out) != 2 {
		t.Fatal("empty overflow should be a no-op passthrough")
	}
	if c.Stats().MergedKV != 0 {
		t.Fatal("no-op merge counted merge work")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := smallCAM(t, 4)
	for i := 0; i < 10; i++ {
		c.Accumulate(uint32(i%3), 1)
	}
	st := c.Stats()
	if st.Accumulates != 10 {
		t.Fatalf("Accumulates = %d", st.Accumulates)
	}
	if st.Hits != 7 || st.Misses != 3 {
		t.Fatalf("Hits=%d Misses=%d, want 7/3", st.Hits, st.Misses)
	}
	if st.Inserts != 3 {
		t.Fatalf("Inserts = %d", st.Inserts)
	}
	c.Reset()
	if c.Stats().Resets != 1 {
		t.Fatal("Resets not counted")
	}
}

func TestAccumulatorInterfaceViaGather(t *testing.T) {
	var a accum.Accumulator = MustNew(DefaultConfig())
	a.Accumulate(9, 2)
	a.Accumulate(9, 3)
	out := a.Gather(nil)
	if len(out) != 1 || out[0].Key != 9 || out[0].Value != 5 {
		t.Fatalf("interface path: %v", out)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{CapacityBytes: 1, EntryBytes: 16})
}

func BenchmarkAccumulateHit(b *testing.B) {
	c := MustNew(DefaultConfig())
	for i := 0; i < b.N; i++ {
		c.Accumulate(uint32(i&255), 1.0)
	}
}

func BenchmarkAccumulateChurn(b *testing.B) {
	c := MustNew(Config{CapacityBytes: 1024, EntryBytes: 16, Policy: LRU})
	for i := 0; i < b.N; i++ {
		c.Accumulate(uint32(i%100003), 1.0)
	}
}
