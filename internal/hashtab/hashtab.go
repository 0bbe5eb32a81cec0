// Package hashtab implements the paper's Baseline: an explicit
// separate-chaining hash table modeled on libstdc++'s std::unordered_map,
// which is what HyPC-Map uses for the outFlowToModules / inFlowFromModules
// tables in Algorithm 1. Go's builtin map hides its internals, so this
// explicit table exists to (a) reproduce the probe/chain behaviour that the
// paper identifies as the bottleneck — pointer-chasing collision chains,
// data-dependent branches, rehashing — and (b) count those events so the
// perf package can model the resulting instructions, branch mispredictions,
// and CPI.
//
// Layout choices copied from libstdc++: identity hash for integer keys,
// modulo a prime bucket count, max load factor 1.0, growth to the next prime
// at least twice the size.
package hashtab

import "github.com/asamap/asamap/internal/accum"

// primes is the libstdc++-style growth schedule for bucket counts.
var primes = []uint32{
	13, 29, 59, 127, 257, 541, 1109, 2357, 5087, 10273, 20753, 42043,
	85229, 172933, 351061, 712697, 1447153, 2938679,
}

func nextPrime(atLeast uint32) uint32 {
	for _, p := range primes {
		if p >= atLeast {
			return p
		}
	}
	return primes[len(primes)-1]
}

type entry struct {
	key   uint32
	next  int32 // index of next entry in chain, -1 terminates
	value float64
}

// Table is a separate-chaining hash accumulator. It is not safe for
// concurrent use; the parallel kernel gives each worker its own Table.
type Table struct {
	buckets []int32 // head entry index per bucket, -1 empty
	entries []entry
	stats   accum.Stats
	trace   func(addr uint64) // optional memory-address sink (cachesim)
}

// Virtual base addresses of the table's arrays for address-trace generation.
// The values only need to be distinct and stable; the cache simulator cares
// about line and set indices, not absolute placement.
const (
	bucketArrayBase = 0x1000_0000
	entryArrayBase  = 0x2000_0000
	bucketStride    = 4  // int32 head per bucket
	entryStride     = 16 // key + next + padded value
)

// SetTracer installs a memory-address callback invoked for every bucket and
// chain-entry touch. Pass nil to disable. Used by the cache-simulation
// experiment to measure the table's real miss behaviour; adds one nil check
// per touch otherwise.
func (t *Table) SetTracer(fn func(addr uint64)) { t.trace = fn }

func (t *Table) touchBucket(b uint32) {
	if t.trace != nil {
		t.trace(bucketArrayBase + uint64(b)*bucketStride)
	}
}

func (t *Table) touchEntry(i int32) {
	if t.trace != nil {
		t.trace(entryArrayBase + uint64(i)*entryStride)
	}
}

// New returns a Table with the smallest bucket count that can hold hint
// entries without rehashing.
func New(hint int) *Table {
	n := nextPrime(uint32(max(hint, 1)))
	t := &Table{buckets: make([]int32, n)}
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	if hint > 0 {
		t.entries = make([]entry, 0, hint)
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// bucketOf applies the unordered_map scheme: identity hash, modulo prime.
func (t *Table) bucketOf(key uint32) uint32 { return key % uint32(len(t.buckets)) }

// Accumulate implements accum.Accumulator: find-or-insert key and add value.
// This mirrors lines 6–11 of the paper's Algorithm 1 (count() followed by
// operator[], fused into a single probe here as any real implementation
// does).
func (t *Table) Accumulate(key uint32, value float64) {
	t.stats.Accumulates++
	b := t.bucketOf(key)
	t.touchBucket(b)
	for i := t.buckets[b]; i >= 0; i = t.entries[i].next {
		t.touchEntry(i)
		if t.entries[i].key == key {
			t.stats.Hits++
			t.entries[i].value += value
			return
		}
		t.stats.ChainHops++
	}
	t.stats.Misses++
	t.insert(key, value)
}

// Lookup implements accum.Accumulator: a read-only probe that walks the
// collision chain exactly like Accumulate but never inserts. This is the
// inFlowFromModules[newModId] fetch in lines 16–19 of Algorithm 1.
func (t *Table) Lookup(key uint32) (float64, bool) {
	t.stats.Lookups++
	b := t.bucketOf(key)
	t.touchBucket(b)
	for i := t.buckets[b]; i >= 0; i = t.entries[i].next {
		t.touchEntry(i)
		if t.entries[i].key == key {
			return t.entries[i].value, true
		}
		t.stats.ChainHops++
	}
	return 0, false
}

func (t *Table) insert(key uint32, value float64) {
	if len(t.entries)+1 > len(t.buckets) {
		t.rehash()
	}
	b := t.bucketOf(key)
	t.entries = append(t.entries, entry{key: key, value: value, next: t.buckets[b]})
	t.buckets[b] = int32(len(t.entries) - 1)
	t.touchBucket(b)
	t.touchEntry(int32(len(t.entries) - 1))
	t.stats.Inserts++
}

// rehash grows the bucket array to the next prime at least twice the current
// size and relinks every entry, counting each relink as a rehash event.
func (t *Table) rehash() {
	n := nextPrime(uint32(2*len(t.buckets) + 1))
	//asalint:hotalloc rehash is the amortized growth path, entered only past the load-factor bound; steady-state accumulation never reaches it
	t.buckets = make([]int32, n)
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	for i := range t.entries {
		b := t.bucketOf(t.entries[i].key)
		t.entries[i].next = t.buckets[b]
		t.buckets[b] = int32(i)
		t.stats.Rehashes++
	}
}

// Gather implements accum.Accumulator. Entries are appended in insertion
// order (each key appears once because Accumulate merges on insert).
func (t *Table) Gather(dst []accum.KV) []accum.KV {
	t.stats.Gathers++
	for i := range t.entries {
		dst = append(dst, accum.KV{Key: t.entries[i].key, Value: t.entries[i].value})
	}
	t.stats.GatheredKV += uint64(len(t.entries))
	return dst
}

// Len returns the number of distinct keys currently stored.
func (t *Table) Len() int { return len(t.entries) }

// BucketCount returns the current number of buckets (for tests and reports).
func (t *Table) BucketCount() int { return len(t.buckets) }

// Reset implements accum.Accumulator. The bucket array keeps its size,
// matching unordered_map::clear semantics, but only the heads this session's
// entries hashed to are cleared: every other head is already -1, so the cost
// is O(session entries), not O(bucket count). A hub session grows the array
// once; the small sessions after it no longer pay to rewrite it.
func (t *Table) Reset() {
	t.stats.Resets++
	for i := range t.entries {
		t.buckets[t.bucketOf(t.entries[i].key)] = -1
	}
	t.entries = t.entries[:0]
}

// Stats implements accum.Accumulator.
func (t *Table) Stats() accum.Stats { return t.stats }

// Name implements accum.Accumulator.
func (t *Table) Name() string { return "softhash" }

var _ accum.Accumulator = (*Table)(nil)
