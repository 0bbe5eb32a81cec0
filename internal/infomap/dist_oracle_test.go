package infomap_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/dist"
	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/rng"
)

// TestDistCodelengthMatchesReference holds the distributed run's final L to
// the definition-level codelength of the partition it returns, on random
// small graphs of every flow kind (undirected, directed under recorded and
// unrecorded teleportation) at 1, 2 and 4 ranks and under a faulted
// schedule (drops, duplicates, delays and one crashed rank).
func TestDistCodelengthMatchesReference(t *testing.T) {
	const tol = 1e-12
	faulted := fault.Disabled()
	faulted.DropProb, faulted.DupProb, faulted.DelayProb = 0.2, 0.1, 0.1
	faulted.InjectCrash = true
	faulted.CrashRank, faulted.CrashStep, faulted.CrashDownFor = 1, 2, 2
	schedules := []struct {
		ranks int
		fault fault.Config
	}{{1, fault.Disabled()}, {2, fault.Disabled()}, {4, fault.Disabled()}, {4, faulted}}

	kinds := []struct {
		name     string
		directed bool
		kind     infomap.Teleportation
	}{
		{"undirected", false, infomap.TeleportRecorded},
		{"recorded", true, infomap.TeleportRecorded},
		{"unrecorded", true, infomap.TeleportUnrecorded},
	}
	for _, fk := range kinds {
		t.Run(fk.name, func(t *testing.T) {
			r := rng.New(29)
			var injected fault.Stats
			for trial := 0; trial < 40; trial++ {
				n := 1 + r.Intn(30)
				g, ref := infomap.Oracle(t, r.Uint64(), n, r.Intn(3*n+1), fk.directed, fk.kind)
				for _, s := range schedules {
					opt := dist.DefaultOptions()
					opt.Infomap.Teleport = fk.kind
					opt.Ranks = s.ranks
					opt.Fault = s.fault
					opt.Infomap.MaxSweeps = 200
					name := fmt.Sprintf("trial %d, %d ranks, faulted %v", trial, s.ranks, s.fault.InjectCrash)
					res, err := dist.RunContext(context.Background(), g, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := ref(res.Membership); math.Abs(res.Codelength-want) > tol {
						t.Fatalf("%s: dist L %.15f, reference %.15f", name, res.Codelength, want)
					}
					injected.Drops += res.Fault.Drops
					injected.Crashes += res.Fault.Crashes
				}
			}
			if injected.Drops == 0 || injected.Crashes == 0 {
				t.Fatalf("faulted schedule injected %+v: no drop or no crash exercised", injected)
			}
		})
	}
}
