package accum

import (
	"testing"
)

func TestMapAccumulator(t *testing.T) {
	a := NewMap(4)
	a.Accumulate(2, 1.5)
	a.Accumulate(1, 1.0)
	a.Accumulate(2, 0.5)
	got := a.Gather(nil)
	if len(got) != 2 {
		t.Fatalf("gathered %v", got)
	}
	if got[0] != (KV{Key: 1, Value: 1.0}) || got[1] != (KV{Key: 2, Value: 2.0}) {
		t.Fatalf("gather not sorted/merged: %v", got)
	}
	st := a.Stats()
	if st.Accumulates != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
	a.Reset()
	if len(a.Gather(nil)) != 0 {
		t.Fatal("reset left entries")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accumulates: 1, Hits: 2, Misses: 3, ChainHops: 4, Inserts: 5,
		Rehashes: 6, Evictions: 7, OverflowKV: 8, MergedKV: 9, Gathers: 10,
		GatheredKV: 11, Resets: 12, BinnedKV: 13, ScatteredKV: 14, BinMergedKV: 15}
	b := a
	a.Add(b)
	if a.Accumulates != 2 || a.Resets != 24 || a.MergedKV != 18 ||
		a.Hits != 4 || a.Misses != 6 || a.ChainHops != 8 || a.Inserts != 10 ||
		a.Rehashes != 12 || a.Evictions != 14 || a.OverflowKV != 16 ||
		a.Gathers != 20 || a.GatheredKV != 22 ||
		a.BinnedKV != 26 || a.ScatteredKV != 28 || a.BinMergedKV != 30 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if d := a.Sub(b); d != b {
		t.Fatalf("Sub wrong: %+v", d)
	}
	if d := b.Sub(a); d != (Stats{}) {
		t.Fatalf("Sub underflow should clamp to zero: %+v", d)
	}
}

func TestGatherAppendsToDst(t *testing.T) {
	a := NewMap(2)
	a.Accumulate(5, 1)
	out := a.Gather([]KV{{Key: 0, Value: 0}})
	if len(out) != 2 || out[0].Key != 0 || out[1].Key != 5 {
		t.Fatalf("append semantics broken: %v", out)
	}
}
