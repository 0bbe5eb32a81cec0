// Package asa is a functional software model of the Accelerated Sparse
// Accumulation (ASA) hardware unit of Zhang et al. (TACO 2022), generalized
// exactly as the paper does: a per-core content-addressable memory (CAM) with
// a single accumulate operation, an LRU-evicted overflow queue, and a
// gather + sort_and_merge path for overflowed pairs (Algorithm 2 of the
// paper).
//
// The model preserves the three architectural outcomes of an accumulate:
//
//  1. key present in CAM        → value added to the partial sum (hit),
//  2. key absent, CAM has space → new entry created (miss),
//  3. key absent, CAM full      → the LRU entry is evicted into the overflow
//     queue buffer and its slot is reused (miss + eviction).
//
// Event counts feed the perf package's hardware cost model; the functional
// results are bit-identical to a plain map accumulation (tests enforce this),
// which is why the identical Infomap kernel can run on either backend.
package asa

import (
	"fmt"
	"sort"

	"github.com/asamap/asamap/internal/accum"
)

// Policy selects the CAM replacement policy. The paper's ASA uses LRU; FIFO
// and Random exist for the ablation study (experiment X4 in DESIGN.md).
type Policy int

const (
	// LRU evicts the least recently touched entry (paper default).
	LRU Policy = iota
	// FIFO evicts the oldest inserted entry regardless of hits.
	FIFO
	// Random evicts a pseudo-randomly chosen entry.
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config describes one core-local CAM.
type Config struct {
	// CapacityBytes is the CAM size; the paper evaluates 1KB–8KB per core
	// and shows 8KB covers >99% of vertex neighborhoods.
	CapacityBytes int
	// EntryBytes is the storage per (key, partial sum) entry. The paper's
	// ASA stores a key and a 64-bit accumulator; 16 bytes is the default.
	EntryBytes int
	// Policy is the replacement policy (default LRU).
	Policy Policy
}

// DefaultConfig returns the paper's headline configuration: 8KB CAM, 16-byte
// entries (512 entries), LRU.
func DefaultConfig() Config {
	return Config{CapacityBytes: 8 * 1024, EntryBytes: 16, Policy: LRU}
}

// Entries returns the number of CAM entries the configuration provides.
func (c Config) Entries() int { return c.CapacityBytes / c.EntryBytes }

func (c Config) validate() error {
	if c.EntryBytes < 12 {
		return fmt.Errorf("asa: EntryBytes %d too small (need key+sum)", c.EntryBytes)
	}
	if c.CapacityBytes < c.EntryBytes {
		return fmt.Errorf("asa: capacity %dB holds no entries of %dB", c.CapacityBytes, c.EntryBytes)
	}
	switch c.Policy {
	case LRU, FIFO, Random:
	default:
		return fmt.Errorf("asa: unknown policy %d", int(c.Policy))
	}
	return nil
}

type slot struct {
	key        uint32
	prev, next int32 // intrusive recency/insertion list
	value      float64
}

const (
	idxEmpty = -1 // index cell never used this generation
	idxTomb  = -2 // index cell deleted this generation
)

// CAM is one core-local accumulator. Not safe for concurrent use: the
// parallel kernel instantiates one CAM per worker, mirroring the tid
// parameter in the paper's accumulate(tid, hash(k), k, v) call.
type CAM struct {
	cfg      Config
	capacity int

	slots      []slot
	used       int
	head, tail int32 // recency list: head = most recent, tail = eviction victim

	// Open-addressed key index over the slots, with generation stamps so
	// Reset is O(1). A real CAM compares all entries in parallel; the index
	// is a software stand-in with identical functional behaviour.
	index    []int32
	gen      []uint32
	curGen   uint32
	mask     uint32
	tombs    int
	overflow []accum.KV
	rndState uint64
	stats    accum.Stats
}

// New returns a CAM for the given configuration.
func New(cfg Config) (*CAM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	capacity := cfg.Entries()
	idxSize := 4
	for idxSize < 4*capacity {
		idxSize <<= 1
	}
	c := &CAM{
		cfg:      cfg,
		capacity: capacity,
		slots:    make([]slot, capacity),
		head:     -1,
		tail:     -1,
		index:    make([]int32, idxSize),
		gen:      make([]uint32, idxSize),
		curGen:   1,
		mask:     uint32(idxSize - 1),
		rndState: 0x9e3779b97f4a7c15,
	}
	return c, nil
}

// MustNew is New for static configurations; it panics on invalid config.
func MustNew(cfg Config) *CAM {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// probe locates key in the index. It returns the index position holding the
// key (found=true), or the position where it should be inserted.
func (c *CAM) probe(key uint32) (pos uint32, found bool) {
	pos = hash32(key) & c.mask
	insertAt := uint32(0xffffffff)
	for {
		if c.gen[pos] != c.curGen {
			if insertAt != 0xffffffff {
				return insertAt, false
			}
			return pos, false
		}
		s := c.index[pos]
		if s == idxTomb {
			if insertAt == 0xffffffff {
				insertAt = pos
			}
		} else if c.slots[s].key == key {
			return pos, true
		}
		pos = (pos + 1) & c.mask
	}
}

// Accumulate implements accum.Accumulator and models the single ASA
// instruction: CAM lookup + add, with LRU eviction to the overflow queue on
// capacity conflict.
func (c *CAM) Accumulate(key uint32, value float64) {
	c.stats.Accumulates++
	pos, found := c.probe(key)
	if found {
		c.stats.Hits++
		s := c.index[pos]
		c.slots[s].value += value
		if c.cfg.Policy == LRU {
			c.touch(s)
		}
		return
	}
	c.stats.Misses++
	var s int32
	if c.used < c.capacity {
		s = int32(c.used)
		c.used++
	} else {
		s = c.evict()
		// Eviction tombstoned an index cell; the insertion position may
		// have shifted, so re-probe.
		pos, _ = c.probe(key)
	}
	c.slots[s] = slot{key: key, value: value, prev: -1, next: -1}
	c.pushFront(s)
	if c.gen[pos] == c.curGen && c.index[pos] == idxTomb {
		c.tombs--
	}
	c.gen[pos] = c.curGen
	c.index[pos] = s
	c.stats.Inserts++
	if c.tombs > c.capacity {
		c.rebuildIndex()
	}
}

// Lookup implements accum.Accumulator: a read-only CAM probe. If the key has
// been evicted into the overflow queue, its partial sums there are included.
// The ASA kernel (Algorithm 2) never performs point lookups — it gathers and
// merges instead — so this exists only for interface completeness and tests.
func (c *CAM) Lookup(key uint32) (float64, bool) {
	c.stats.Lookups++
	sum, found := 0.0, false
	if pos, ok := c.probe(key); ok {
		sum += c.slots[c.index[pos]].value
		found = true
	}
	for _, kv := range c.overflow {
		if kv.Key == key {
			sum += kv.Value
			found = true
		}
	}
	return sum, found
}

// evict removes one entry per the replacement policy, appends it to the
// overflow queue, unlinks it from the recency list, and returns its slot.
func (c *CAM) evict() int32 {
	var victim int32
	switch c.cfg.Policy {
	case LRU, FIFO:
		victim = c.tail
	case Random:
		c.rndState ^= c.rndState << 13
		c.rndState ^= c.rndState >> 7
		c.rndState ^= c.rndState << 17
		victim = int32(c.rndState % uint64(c.capacity))
	}
	v := &c.slots[victim]
	c.overflow = append(c.overflow, accum.KV{Key: v.key, Value: v.value})
	c.stats.Evictions++
	c.stats.OverflowKV++
	// Tombstone the victim's index cell.
	pos, found := c.probe(v.key)
	if found {
		c.index[pos] = idxTomb
		c.tombs++
	}
	c.unlink(victim)
	return victim
}

func (c *CAM) rebuildIndex() {
	for i := range c.gen {
		c.gen[i] = 0
	}
	c.curGen = 1
	c.tombs = 0
	for s := c.head; s >= 0; s = c.slots[s].next {
		pos, _ := c.probe(c.slots[s].key)
		c.gen[pos] = c.curGen
		c.index[pos] = s
	}
}

// --- recency list plumbing ---

func (c *CAM) pushFront(s int32) {
	c.slots[s].prev = -1
	c.slots[s].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

func (c *CAM) unlink(s int32) {
	p, n := c.slots[s].prev, c.slots[s].next
	if p >= 0 {
		c.slots[p].next = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.slots[n].prev = p
	} else {
		c.tail = p
	}
}

func (c *CAM) touch(s int32) {
	if c.head == s {
		return
	}
	c.unlink(s)
	c.pushFront(s)
}

// GatherCAM implements the paper's gather_CAM(tid, nonoverflowed, overflowed)
// call: it appends the live CAM contents to non and the overflow queue
// contents to over, returning both. Neither buffer is merged or sorted.
func (c *CAM) GatherCAM(non, over []accum.KV) ([]accum.KV, []accum.KV) {
	c.stats.Gathers++
	for s := c.head; s >= 0; s = c.slots[s].next {
		non = append(non, accum.KV{Key: c.slots[s].key, Value: c.slots[s].value})
	}
	over = append(over, c.overflow...)
	c.stats.GatheredKV += uint64(c.used + len(c.overflow))
	return non, over
}

// SortAndMerge implements the paper's sort_and_merge step (Algorithm 2 lines
// 10–12): overflowed pairs are appended to the non-overflowed ones, the
// combined list is sorted by key, and values of equal keys are merged. The
// merged list is returned (it reuses non's backing array).
func (c *CAM) SortAndMerge(non, over []accum.KV) []accum.KV {
	if len(over) == 0 {
		return non
	}
	non = append(non, over...)
	//asalint:hotalloc sort_and_merge runs only when the CAM overflowed; one sort.Slice header is amortized over the whole overflow batch (Algorithm 2 lines 10-12)
	sort.Slice(non, func(i, j int) bool { return non[i].Key < non[j].Key })
	out := non[:0]
	for _, kv := range non {
		if len(out) > 0 && out[len(out)-1].Key == kv.Key {
			out[len(out)-1].Value += kv.Value
			continue
		}
		out = append(out, kv)
	}
	c.stats.MergedKV += uint64(len(non))
	return out
}

// Gather implements accum.Accumulator: gather_CAM followed, when the
// overflow queue is non-empty, by sort_and_merge — exactly the control flow
// of Algorithm 2.
func (c *CAM) Gather(dst []accum.KV) []accum.KV {
	start := len(dst)
	var over []accum.KV
	dst, over = c.GatherCAM(dst, nil)
	if len(over) > 0 {
		merged := c.SortAndMerge(dst[start:], over)
		dst = append(dst[:start], merged...)
	}
	return dst
}

// Reset implements accum.Accumulator. It clears the CAM and overflow queue
// in O(1) via generation stamps (a real CAM clears with a single broadcast).
func (c *CAM) Reset() {
	c.stats.Resets++
	c.curGen++
	if c.curGen == 0 { // generation wrap: scrub stamps
		for i := range c.gen {
			c.gen[i] = 0
		}
		c.curGen = 1
	}
	c.used = 0
	c.head, c.tail = -1, -1
	c.tombs = 0
	c.overflow = c.overflow[:0]
}

// Stats implements accum.Accumulator.
func (c *CAM) Stats() accum.Stats { return c.stats }

var _ accum.Accumulator = (*CAM)(nil)
