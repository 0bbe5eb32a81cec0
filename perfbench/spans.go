package main

import (
	"strconv"
	"time"

	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/trace"
)

// layerTimes is one op's span tree reduced to the layers the benchmark
// reports. Kernel spans are taken inclusive of their per-worker children, so
// the kernels never double-count one another.
type layerTimes struct {
	byName map[string]time.Duration // summed inclusive duration per span name

	// Scheduler view, from the per-worker spans the sweep pool records under
	// each FindBestCommunity dispatch.
	busy    time.Duration // summed worker busy time
	steals  uint64
	imbNum  float64 // busy-weighted sum of per-dispatch max/mean busy
	imbDen  float64
	workers int
}

func analyze(spans []obs.SpanData, workers int) layerTimes {
	lt := layerTimes{byName: map[string]time.Duration{}, workers: workers}
	perDispatch := map[uint64][]time.Duration{}
	for _, s := range spans {
		lt.byName[s.Name] += s.Duration()
		if s.Name != "worker" {
			continue
		}
		for _, a := range s.VolatileAttrs {
			switch a.Key {
			case "busy":
				if d, err := time.ParseDuration(a.Value); err == nil {
					lt.busy += d
					perDispatch[s.Parent] = append(perDispatch[s.Parent], d)
				}
			case "steals":
				if n, err := strconv.ParseUint(a.Value, 10, 64); err == nil {
					lt.steals += n
				}
			}
		}
	}
	for _, busy := range perDispatch {
		var sum, max time.Duration
		for _, b := range busy {
			sum += b
			if b > max {
				max = b
			}
		}
		if sum == 0 {
			continue
		}
		mean := float64(sum) / float64(workers)
		lt.imbNum += float64(max) / mean * float64(sum)
		lt.imbDen += float64(sum)
	}
	return lt
}

func (lt layerTimes) ms(name string) float64 { return ms(lt.byName[name]) }

// kernelsMs is the time of the four named Infomap kernels.
func (lt layerTimes) kernelsMs() float64 {
	return lt.ms(trace.KernelPageRank) + lt.ms(trace.KernelFindBestCommunity) +
		lt.ms(trace.KernelUpdateMembers) + lt.ms(trace.KernelConvert2SuperNode)
}

// recordKernels samples the Infomap and scheduler layers of one traced op.
func (lt layerTimes) recordKernels(rec *recorder) {
	rec.add("pagerank.ms", lt.ms(trace.KernelPageRank))
	rec.add("infomap.run_ms", lt.ms("run"))
	rec.add("infomap.find_best_community_ms", lt.ms(trace.KernelFindBestCommunity))
	rec.add("infomap.update_members_ms", lt.ms(trace.KernelUpdateMembers))
	rec.add("infomap.convert2supernode_ms", lt.ms(trace.KernelConvert2SuperNode))
	rec.add("sched.busy_ms", ms(lt.busy))
	if fbc := lt.byName[trace.KernelFindBestCommunity]; fbc > 0 {
		rec.add("sched.efficiency", float64(lt.busy)/(float64(lt.workers)*float64(fbc)))
	}
	if lt.imbDen > 0 {
		rec.add("sched.imbalance", lt.imbNum/lt.imbDen)
	}
	rec.add("sched.steals", float64(lt.steals))
}
