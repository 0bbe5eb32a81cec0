package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterministic: the ring is a pure function of (seed, replicas,
// vnodes), so every node derives identical ownership without coordination.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(5, 64, 42)
	b := NewRing(5, 64, 42)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("graph-%d", i)
		ao, bo := a.Owners(key, 3), b.Owners(key, 3)
		if len(ao) != 3 || len(bo) != 3 {
			t.Fatalf("key %s: owner counts %d/%d, want 3", key, len(ao), len(bo))
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("key %s: rings disagree: %v vs %v", key, ao, bo)
			}
		}
	}
}

// TestRingOwnersDistinct: the preference order never repeats a replica and
// clamps to the replica count.
func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing(3, 16, 7)
	for i := 0; i < 100; i++ {
		owners := r.Owners(fmt.Sprintf("k%d", i), 10) // over-ask: clamp to 3
		if len(owners) != 3 {
			t.Fatalf("key k%d: %d owners, want 3", i, len(owners))
		}
		seen := map[int]bool{}
		for _, p := range owners {
			if p < 0 || p >= 3 {
				t.Fatalf("owner %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("key k%d: duplicate owner %d in %v", i, p, owners)
			}
			seen[p] = true
		}
		if r.Owners(fmt.Sprintf("k%d", i), 1)[0] != owners[0] {
			t.Fatalf("Owners(key, 1) disagrees with Owners(key, 3)[0]")
		}
	}
}

// TestRingBalance: with enough vnodes, no replica owns a wildly
// disproportionate share of keys. The bound is loose — this guards against
// a broken hash (all keys on one replica), not against mild skew.
func TestRingBalance(t *testing.T) {
	const replicas, keys = 4, 4000
	r := NewRing(replicas, 64, 99)
	counts := make([]int, replicas)
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("graph-%x", i*2654435761), 1)[0]]++
	}
	for p, c := range counts {
		if c < keys/replicas/4 || c > keys*3/replicas {
			t.Fatalf("replica %d owns %d of %d keys — degenerate ring: %v", p, c, keys, counts)
		}
	}
}

// TestRingSeedVariesPlacement: different seeds shuffle ownership (different
// clusters decorrelate), while each seed remains self-consistent.
func TestRingSeedVariesPlacement(t *testing.T) {
	a, b := NewRing(4, 64, 1), NewRing(4, 64, 2)
	moved := 0
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Owners(key, 1)[0] != b.Owners(key, 1)[0] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("seed change moved no keys — the seed is not reaching placement")
	}
}
