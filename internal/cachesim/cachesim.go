// Package cachesim is a trace-driven cache-hierarchy simulator in the spirit
// of the cache models inside ZSim: set-associative L1/L2/L3 caches with LRU
// replacement and configurable line size. The paper's argument for ASA rests
// on the memory behaviour of software hash tables — pointer-chasing collision
// chains touch scattered lines that defeat prefetchers and miss deep in the
// hierarchy — so this simulator lets the repository *measure* those miss
// rates from the actual probe address streams of the instrumented hash table
// instead of assuming them, and validates the constants baked into the
// analytic perf model.
package cachesim

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	SizeKB   int // total capacity
	Assoc    int // ways per set
	LineSize int // bytes per line (power of two)
	Latency  int // access latency in cycles (on hit at this level)
}

// Cache is one set-associative LRU cache level.
type Cache struct {
	cfg      CacheConfig
	sets     int
	lineBits uint
	setMask  uint64
	// tags[set*assoc+way]; use stamps for LRU.
	tags   []uint64
	valid  []bool
	stamp  []uint64
	clock  uint64
	hits   uint64
	misses uint64
}

// NewCache builds a cache level from its configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.SizeKB <= 0 || cfg.Assoc <= 0 || cfg.LineSize <= 0 {
		return nil, fmt.Errorf("cachesim: invalid config %+v", cfg)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d not a power of two", cfg.LineSize)
	}
	lines := cfg.SizeKB * 1024 / cfg.LineSize
	if lines%cfg.Assoc != 0 {
		return nil, fmt.Errorf("cachesim: %d lines not divisible by associativity %d", lines, cfg.Assoc)
	}
	sets := lines / cfg.Assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: set count %d not a power of two", sets)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Assoc),
		valid:    make([]bool, sets*cfg.Assoc),
		stamp:    make([]uint64, sets*cfg.Assoc),
	}, nil
}

// Access looks up addr; on miss the line is installed (evicting LRU).
// Returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.cfg.Assoc
	lruWay, lruStamp := 0, ^uint64(0)
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.stamp[i] = c.clock
			c.hits++
			return true
		}
		if !c.valid[i] {
			lruWay, lruStamp = w, 0
		} else if c.stamp[i] < lruStamp {
			lruWay, lruStamp = w, c.stamp[i]
		}
	}
	c.misses++
	i := base + lruWay
	c.tags[i] = line
	c.valid[i] = true
	c.stamp[i] = c.clock
	return false
}

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses/(hits+misses), 0 when idle.
func (c *Cache) MissRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.misses) / float64(t)
}

// Hierarchy is an inclusive multi-level hierarchy; an access walks levels
// until it hits, installing the line in every level it missed.
type Hierarchy struct {
	Levels     []*Cache
	MemLatency int // cycles on full miss
	accesses   uint64
	cycles     uint64
}

// NewHierarchy builds the paper's Table II hierarchy: 32KB 8-way L1 (4
// cycles), 256KB 8-way L2 (12 cycles), L3 of l3MB 16-way (36 cycles), DRAM
// 200 cycles; 64-byte lines throughout.
func NewHierarchy(l3MB int) (*Hierarchy, error) {
	l1, err := NewCache(CacheConfig{Name: "L1D", SizeKB: 32, Assoc: 8, LineSize: 64, Latency: 4})
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(CacheConfig{Name: "L2", SizeKB: 256, Assoc: 8, LineSize: 64, Latency: 12})
	if err != nil {
		return nil, err
	}
	l3, err := NewCache(CacheConfig{Name: "L3", SizeKB: l3MB * 1024, Assoc: 16, LineSize: 64, Latency: 36})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{Levels: []*Cache{l1, l2, l3}, MemLatency: 200}, nil
}

// Access walks the hierarchy for addr and returns the access latency in
// cycles (the latency of the level that hit, or memory).
func (h *Hierarchy) Access(addr uint64) int {
	h.accesses++
	for _, c := range h.Levels {
		if c.Access(addr) {
			h.cycles += uint64(c.cfg.Latency)
			return c.cfg.Latency
		}
	}
	h.cycles += uint64(h.MemLatency)
	return h.MemLatency
}

// Accesses returns the number of Access calls.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// AvgLatency returns the mean cycles per access (0 when idle).
func (h *Hierarchy) AvgLatency() float64 {
	if h.accesses == 0 {
		return 0
	}
	return float64(h.cycles) / float64(h.accesses)
}

// BeyondL1MissRate returns the fraction of accesses that missed L1 — the
// quantity the perf model's MemAccesses coefficient approximates.
func (h *Hierarchy) BeyondL1MissRate() float64 {
	return h.Levels[0].MissRate()
}

// DeepMissRate returns the fraction of L1-missing accesses that also missed
// the last level (stalling for DRAM) — the perf model's MemMissRate analogue.
func (h *Hierarchy) DeepMissRate() float64 {
	last := h.Levels[len(h.Levels)-1]
	l1m := h.Levels[0].Misses()
	if l1m == 0 {
		return 0
	}
	return float64(last.Misses()) / float64(l1m)
}
