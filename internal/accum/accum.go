// Package accum defines the sparse-accumulation interface at the heart of the
// paper: the FindBestCommunity kernel repeatedly accumulates flow values
// keyed by neighbor module IDs, and the choice of accumulator implementation
// — software hash table (baseline) versus the ASA content-addressable-memory
// accelerator — is the paper's entire contribution. Keeping the interface
// tiny lets the identical Infomap kernel run unchanged over either backend,
// and over the plain Go map used as a correctness oracle in tests.
//
// The same interface also serves the SpGEMM substrate (package spgemm), which
// is the computation ASA was originally designed for; this generalization is
// the paper's stated goal.
package accum

import "sort"

// KV is an accumulated (key, value) pair: a module/column ID and the summed
// flow/numeric value.
type KV struct {
	Key   uint32
	Value float64
}

// Stats counts the primitive events an accumulator performs. The perf package
// converts these event counts into modeled hardware counters (instructions,
// branches, mispredictions, cycles). Not every implementation uses every
// field.
type Stats struct {
	Accumulates uint64 // Accumulate calls
	Lookups     uint64 // Lookup calls (read-only probes)
	Hits        uint64 // key already present
	Misses      uint64 // key not present (new entry created)
	ChainHops   uint64 // software hash: traversed collision-chain links
	Inserts     uint64 // entries created
	Rehashes    uint64 // software hash: entries moved during table growth
	Evictions   uint64 // ASA: LRU evictions into the overflow queue
	OverflowKV  uint64 // ASA: pairs that passed through the overflow queue
	MergedKV    uint64 // ASA: pairs processed by sort_and_merge
	BinnedKV    uint64 // hashgraph: pairs hashed and counted into bins (resolve pass 1)
	ScatteredKV uint64 // hashgraph: pairs scattered into contiguous bin slots (resolve pass 2)
	BinMergedKV uint64 // hashgraph: duplicate pairs folded during the in-bin merge
	Gathers     uint64 // Gather calls
	GatheredKV  uint64 // pairs copied out by Gather
	Resets      uint64 // Reset calls
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accumulates += other.Accumulates
	s.Lookups += other.Lookups
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.ChainHops += other.ChainHops
	s.Inserts += other.Inserts
	s.Rehashes += other.Rehashes
	s.Evictions += other.Evictions
	s.OverflowKV += other.OverflowKV
	s.MergedKV += other.MergedKV
	s.BinnedKV += other.BinnedKV
	s.ScatteredKV += other.ScatteredKV
	s.BinMergedKV += other.BinMergedKV
	s.Gathers += other.Gathers
	s.GatheredKV += other.GatheredKV
	s.Resets += other.Resets
}

// Sub returns s minus other field-wise (counters are cumulative, so this
// yields the events of a sub-span). Underflow clamps to zero.
func (s Stats) Sub(other Stats) Stats {
	d := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Stats{
		Accumulates: d(s.Accumulates, other.Accumulates),
		Lookups:     d(s.Lookups, other.Lookups),
		Hits:        d(s.Hits, other.Hits),
		Misses:      d(s.Misses, other.Misses),
		ChainHops:   d(s.ChainHops, other.ChainHops),
		Inserts:     d(s.Inserts, other.Inserts),
		Rehashes:    d(s.Rehashes, other.Rehashes),
		Evictions:   d(s.Evictions, other.Evictions),
		OverflowKV:  d(s.OverflowKV, other.OverflowKV),
		MergedKV:    d(s.MergedKV, other.MergedKV),
		BinnedKV:    d(s.BinnedKV, other.BinnedKV),
		ScatteredKV: d(s.ScatteredKV, other.ScatteredKV),
		BinMergedKV: d(s.BinMergedKV, other.BinMergedKV),
		Gathers:     d(s.Gathers, other.Gathers),
		GatheredKV:  d(s.GatheredKV, other.GatheredKV),
		Resets:      d(s.Resets, other.Resets),
	}
}

// Accumulator accumulates float64 values keyed by uint32 keys, then yields
// the merged pairs. Implementations are single-goroutine objects: the
// parallel kernel gives each worker its own instance, mirroring the paper's
// core-local CAM (tid parameter of the ASA accumulate call).
type Accumulator interface {
	// Accumulate adds value to the entry for key, creating it if absent.
	Accumulate(key uint32, value float64)
	// Lookup returns the accumulated value for key without modifying the
	// accumulator. This is the read probe Algorithm 1 performs when it
	// iterates the out-flow table and fetches inFlowFromModules[newModId].
	Lookup(key uint32) (float64, bool)
	// Gather appends every (key, Σvalue) pair to dst and returns it. Each
	// key appears exactly once. Order is implementation defined.
	Gather(dst []KV) []KV
	// Reset clears the accumulator for reuse on the next vertex.
	Reset()
	// Stats returns cumulative event counts since construction.
	Stats() Stats
	// Name identifies the implementation in reports.
	Name() string
}

// MapAccumulator is the reference implementation backed by Go's built-in
// map. It serves as the correctness oracle in tests and as the "idiomatic
// Go" point of comparison in benchmarks.
type MapAccumulator struct {
	m     map[uint32]float64
	keys  []uint32 // this session's keys in insertion order
	stats Stats
}

// NewMap returns a MapAccumulator with the given initial capacity hint.
func NewMap(capacity int) *MapAccumulator {
	return &MapAccumulator{m: make(map[uint32]float64, capacity), keys: make([]uint32, 0, capacity)}
}

// Accumulate implements Accumulator.
func (a *MapAccumulator) Accumulate(key uint32, value float64) {
	a.stats.Accumulates++
	if _, ok := a.m[key]; ok {
		a.stats.Hits++
	} else {
		a.stats.Misses++
		a.stats.Inserts++
		a.keys = append(a.keys, key)
	}
	a.m[key] += value
}

// Lookup implements Accumulator.
func (a *MapAccumulator) Lookup(key uint32) (float64, bool) {
	a.stats.Lookups++
	v, ok := a.m[key]
	return v, ok
}

// Gather implements Accumulator. Pairs are returned sorted by key so the
// oracle is deterministic. The walk is over the session's keys, not the map:
// ranging a map visits every slot of its capacity.
func (a *MapAccumulator) Gather(dst []KV) []KV {
	a.stats.Gathers++
	start := len(dst)
	for _, k := range a.keys {
		dst = append(dst, KV{k, a.m[k]})
	}
	a.stats.GatheredKV += uint64(len(dst) - start)
	//asalint:hotalloc MapAccumulator is the reference oracle, not a production backend; the sort buys deterministic output, and oracle runs are never benchmarked
	sort.Slice(dst[start:], func(i, j int) bool { return dst[start+i].Key < dst[start+j].Key })
	return dst
}

// Reset implements Accumulator. It deletes only the session's keys: clear
// on a map presized to the graph's maximum degree costs O(capacity) per
// vertex, however few keys the vertex touched.
func (a *MapAccumulator) Reset() {
	a.stats.Resets++
	for _, k := range a.keys {
		delete(a.m, k)
	}
	a.keys = a.keys[:0]
}

// Stats implements Accumulator.
func (a *MapAccumulator) Stats() Stats { return a.stats }

// Name implements Accumulator.
func (a *MapAccumulator) Name() string { return "gomap" }

var _ Accumulator = (*MapAccumulator)(nil)
