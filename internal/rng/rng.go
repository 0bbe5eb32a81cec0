// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository. Every experiment in the paper
// reproduction is seeded, so two runs with the same seed produce the same
// graphs, the same traversal orders, and the same simulated hardware counters.
//
// The package implements SplitMix64 (for seeding and cheap hashing) and
// xoshiro256** (the workhorse generator). Both are well-studied generators
// with excellent statistical quality and trivially portable semantics, which
// matters more here than cryptographic strength.
package rng

import "math"

// SplitMix64 advances the state x by the SplitMix64 algorithm and returns the
// next 64-bit output. It is used to expand a single user seed into the larger
// state vectors required by xoshiro256**.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes a 64-bit value through the SplitMix64 finalizer. It is a
// high-quality integer hash suitable for hash-table index derivation.
func Hash64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashString hashes a string to 64 bits: an FNV-1a pass over the bytes
// followed by the SplitMix64 finalizer to spread the low-entropy FNV output
// across all bits. Deterministic across runs and platforms, which makes it
// safe for consistent-hash placement and fault-schedule coordinates.
func HashString(s string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return Hash64(h)
}

// RNG is a xoshiro256** generator. The zero value is not valid; construct
// with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64. Any
// seed, including 0, yields a valid non-degenerate state.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits from the generator.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Classic rejection sampling on the top bits; fast in practice because
	// the rejection zone is at most one part in two.
	mask := ^uint64(0)
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	limit := mask - mask%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes the slice in place using Fisher–Yates.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleUint32 permutes the slice in place using Fisher–Yates.
func (r *RNG) ShuffleUint32(p []uint32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// PowerLaw samples an integer degree in [min, max] from a discrete power law
// with exponent gamma (P(k) ∝ k^-gamma) using inverse transform sampling on
// the continuous approximation. This is the sampler used for scale-free
// degree sequences and LFR community sizes.
func (r *RNG) PowerLaw(min, max int, gamma float64) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if min == max {
		return min
	}
	// Inverse CDF of p(x) ∝ x^-gamma on [min, max+1).
	a := 1.0 - gamma
	lo := math.Pow(float64(min), a)
	hi := math.Pow(float64(max+1), a)
	u := r.Float64()
	x := math.Pow(lo+u*(hi-lo), 1.0/a)
	k := int(x)
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}

// Split returns a new generator deterministically derived from this one,
// suitable for handing to a parallel worker. The parent stream advances by
// one draw per call, so repeated Splits yield independent child streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}
