// Package hashgraph implements a probe-free sparse accumulator modeled on
// HashGraph (Green, "HashGraph — Scalable Hash Tables Using A Sparse Graph
// Data Structure"): a third point in the design space between the chained
// software hash table (package hashtab) and the ASA content-addressable
// memory (package asa).
//
// Where the chained table pays a data-dependent probe — pointer-chasing
// collision chains with hard-to-predict branches — on *every* Accumulate,
// HashGraph defers all collision handling to session end. Accumulate is a
// plain append into a session buffer; when the kernel asks for the merged
// pairs, the buffer is resolved in two branch-light passes borrowed from
// counting sort:
//
//  1. count pass: hash every buffered key and count pairs per hash bin;
//  2. an exclusive prefix sum turns the counts into contiguous bin offsets
//     (the "sparse graph" CSR layout of the paper);
//  3. scatter pass: re-hash and copy every pair into its bin's slice;
//  4. merge pass: fold duplicate keys within each bin. Bins are a few cache
//     lines wide, so the merge scans cache-resident data.
//
// Every pass streams sequentially over dense arrays — no chains, no probing,
// and no rehash/growth churn, which is why the package reports zero
// ChainHops and Rehashes by construction. All buffers are retained across
// Reset, so the steady-state hot loop is allocation-free.
package hashgraph

import "github.com/asamap/asamap/internal/accum"

// targetBinSize is the average number of buffered pairs per hash bin the
// resolve pass aims for. A handful of pairs keeps each bin inside one or two
// cache lines (the paper's cache-resident bin argument) while keeping the
// count/prefix-sum arrays small relative to the buffer.
const targetBinSize = 8

// minBins bounds the bin count from below so tiny sessions still spread
// across a few bins instead of degenerating into one linear list.
const minBins = 4

// hash32 is the same finalizing mixer the ASA model uses; identity hashing
// (as in package hashtab) would let consecutive module IDs fill bins
// unevenly under the counting layout.
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Table is one probe-free accumulator. Like every accum.Accumulator in this
// repository it is a single-goroutine object: the parallel kernel gives each
// worker its own Table.
type Table struct {
	buf []accum.KV // session buffer of raw (key, value) appends

	// Resolved state, valid when !dirty: kv[binStart[b]:binStart[b]+binLen[b]]
	// holds bin b's merged pairs.
	kv       []accum.KV
	binStart []int32
	binLen   []int32
	cursor   []int32 // scatter cursors, scratch for resolve
	nbins    int
	mask     uint32
	dirty    bool

	// Hits/Misses are discovered at resolve time (a duplicate key is a hit,
	// a first occurrence a miss). Sessions may resolve more than once when
	// lookups interleave with accumulates, so the per-session totals seen so
	// far are tracked and only the delta is folded into stats.
	sessionHits   uint64
	sessionMisses uint64

	stats accum.Stats
}

// New returns a Table whose buffers are pre-sized for sessions of about hint
// pairs (e.g. the graph's maximum degree), so the steady state reaches
// allocation-free without growth steps. Any hint is only a hint: buffers
// grow as needed.
func New(hint int) *Table {
	if hint < 1 {
		hint = 1
	}
	t := &Table{
		buf: make([]accum.KV, 0, hint),
		kv:  make([]accum.KV, 0, hint),
	}
	t.sizeBins(binsFor(hint))
	return t
}

// binsFor returns the power-of-two bin count for a session of n pairs.
func binsFor(n int) int {
	bins := minBins
	for bins*targetBinSize < n {
		bins <<= 1
	}
	return bins
}

// sizeBins (re)allocates the per-bin arrays when the bin count grows.
func (t *Table) sizeBins(bins int) {
	if bins <= cap(t.binStart) {
		t.binStart = t.binStart[:bins]
		t.binLen = t.binLen[:bins]
		t.cursor = t.cursor[:bins]
	} else {
		t.binStart = make([]int32, bins)
		t.binLen = make([]int32, bins)
		t.cursor = make([]int32, bins)
	}
	t.nbins = bins
	t.mask = uint32(bins - 1)
}

// Accumulate implements accum.Accumulator. It is the probe-free half of the
// design: a bounds check and a sequential store, no table touch at all.
//
//asalint:hotroot probe-free accumulate: one buffered write per arc
func (t *Table) Accumulate(key uint32, value float64) {
	t.stats.Accumulates++
	t.buf = append(t.buf, accum.KV{Key: key, Value: value})
	t.dirty = true
}

// resolve builds the merged bin layout from the session buffer: count,
// prefix-sum, scatter, in-bin merge. It runs at most once per mutation
// (Lookup and Gather share the resolved state).
func (t *Table) resolve() {
	if !t.dirty {
		return
	}
	t.dirty = false
	t.sizeBins(binsFor(len(t.buf)))

	// Pass 1: count pairs per bin.
	counts := t.cursor // reuse the scatter-cursor array for the raw counts
	for i := range counts {
		counts[i] = 0
	}
	for i := range t.buf {
		counts[hash32(t.buf[i].Key)&t.mask]++
	}
	t.stats.BinnedKV += uint64(len(t.buf))

	// Exclusive prefix sum: contiguous bin offsets (the CSR row pointers of
	// the paper's sparse-graph layout). counts becomes the scatter cursor.
	var sum int32
	for b := range counts {
		t.binStart[b] = sum
		sum += counts[b]
		counts[b] = t.binStart[b]
	}

	// Pass 2: scatter every pair into its bin slot. Within a bin, pairs land
	// in buffer order, which keeps the final layout a pure function of the
	// accumulate sequence — the determinism contract needs no sorting.
	if cap(t.kv) < len(t.buf) {
		t.kv = make([]accum.KV, len(t.buf))
	} else {
		t.kv = t.kv[:len(t.buf)]
	}
	kv := t.kv
	for i := range t.buf {
		b := hash32(t.buf[i].Key) & t.mask
		kv[counts[b]] = t.buf[i]
		counts[b]++
	}
	t.stats.ScatteredKV += uint64(len(t.buf))

	// Pass 3: fold duplicates within each (cache-resident) bin.
	var hits, misses uint64
	for b := 0; b < t.nbins; b++ {
		lo := t.binStart[b]
		hi := counts[b]
		n := lo // end of the merged prefix
	scan:
		for i := lo; i < hi; i++ {
			for j := lo; j < n; j++ {
				if kv[j].Key == kv[i].Key {
					kv[j].Value += kv[i].Value
					hits++
					continue scan
				}
			}
			kv[n] = kv[i]
			n++
			misses++
		}
		t.binLen[b] = n - lo
	}
	t.stats.BinMergedKV += hits - t.sessionHits
	t.stats.Hits += hits - t.sessionHits
	t.stats.Misses += misses - t.sessionMisses
	t.stats.Inserts += misses - t.sessionMisses
	t.sessionHits, t.sessionMisses = hits, misses
}

// Lookup implements accum.Accumulator: resolve if needed, then scan the
// key's bin — a short contiguous run, not a collision chain.
func (t *Table) Lookup(key uint32) (float64, bool) {
	t.stats.Lookups++
	t.resolve()
	b := hash32(key) & t.mask
	lo := t.binStart[b]
	for i := lo; i < lo+t.binLen[b]; i++ {
		if t.kv[i].Key == key {
			return t.kv[i].Value, true
		}
	}
	return 0, false
}

// Gather implements accum.Accumulator: resolve if needed, then append every
// bin's merged prefix in bin order. The output order is a deterministic
// function of the accumulate sequence alone.
//
//asalint:hotroot steady-state resolve+copy-out, pinned alloc-free by TestAllocsSteadyState
func (t *Table) Gather(dst []accum.KV) []accum.KV {
	t.stats.Gathers++
	t.resolve()
	start := len(dst)
	for b := 0; b < t.nbins; b++ {
		lo := t.binStart[b]
		dst = append(dst, t.kv[lo:lo+t.binLen[b]]...)
	}
	t.stats.GatheredKV += uint64(len(dst) - start)
	return dst
}

// Reset implements accum.Accumulator. All buffers keep their capacity, so
// steady-state sessions allocate nothing. The resolved layout is not
// cleared but marked stale: the next Lookup or Gather rebuilds it from the
// (empty) buffer at the session's own bin count, which keeps Reset O(1)
// even after a hub session has widened the bin arrays.
func (t *Table) Reset() {
	t.stats.Resets++
	t.buf = t.buf[:0]
	t.dirty = true
	t.sessionHits, t.sessionMisses = 0, 0
}

// Stats implements accum.Accumulator.
func (t *Table) Stats() accum.Stats { return t.stats }

var _ accum.Accumulator = (*Table)(nil)
