package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The probe is a fixed piece of work the benchmark times between ops to
// follow the host's speed. On a shared host the same op takes 1.7 times as
// long for seconds at a time while another tenant shares its core, and the
// whole host drifts by 20–40% from one minute to the next; the probe slows
// with it. An op's time scaled by the probe's nominal time over its time
// around the op is what the op would have taken on the host at nominal
// speed. The probe is the benchmark's own code and runs outside the ops, so a
// change to the program moves the scaled times exactly as it moves the raw
// ones.
//
// One round is what graph kernels do: a label-propagation sweep over a small
// random graph, each vertex summing its neighbors' weights per label, and
// accumulation into a Go map. A dependent arithmetic loop or a walk through
// memory would not do: neither slows by more than 5% while a tenant on the
// same core slows the ops by 70%. The graph lives outside the Go heap, so it
// shows in no heap or allocation metric; the map (a few KiB) is allocated
// once.
const (
	probeVertices = 4096
	probeDegree   = 8
	probeSweeps   = 2
	probeKeys     = 1024
	probeInserts  = 60_000
	// probeEvery is the longest gap between samples inside the window.
	probeEvery = 250 * time.Millisecond
	// probeAround is how far around an op the samples that scale it reach.
	probeAround = time.Second
)

// probeNominalMs is a round's time, by the number of threads it runs on, on
// a quiet host of the kind the benchmark was calibrated on (two Xeon vCPUs).
// Scaled times read in milliseconds or seconds at that speed. There, a round
// on two threads at once takes more than twice as long as on one.
var probeNominalMs = [...]float64{1: 1.5, 2: 4.0}

// probeGraph is one thread's round: a graph in CSR form and the scratch its
// sweeps and accumulation use.
type probeGraph struct {
	mem    []byte
	w, acc []float64
	adj    []uint32
	off    []int32
	label  []uint32
	m      map[uint32]float64
}

// carve takes the next n values of type T from mem, starting at *at.
func carve[T any](mem []byte, at *int, n int) []T {
	s := unsafe.Slice((*T)(unsafe.Pointer(&mem[*at])), n)
	var z T
	*at += n * int(unsafe.Sizeof(z))
	return s
}

func newProbeGraph() (*probeGraph, error) {
	const n, arcs = probeVertices, probeVertices * probeDegree
	size := 8*(arcs+n) + 4*(arcs+n+1+n)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	at := 0
	g := &probeGraph{mem: mem, m: make(map[uint32]float64, probeKeys)}
	g.w = carve[float64](mem, &at, arcs)
	g.acc = carve[float64](mem, &at, n)
	g.adj = carve[uint32](mem, &at, arcs)
	g.off = carve[int32](mem, &at, n+1)
	g.label = carve[uint32](mem, &at, n)
	// Half of each vertex's arcs go to near vertices and half anywhere, so
	// labels meet often enough for the sums to matter.
	x := uint64(0x2545f4914f6cdd1d)
	for v := 0; v < n; v++ {
		for k := 0; k < probeDegree; k++ {
			x = xorshift(x)
			e := v*probeDegree + k
			g.adj[e] = uint32(x % n)
			if k%2 == 0 {
				g.adj[e] = uint32((v + int(x>>32%32)) % n)
			}
			g.w[e] = float64(1 + x>>40%7)
		}
		g.off[v+1] = int32((v + 1) * probeDegree)
	}
	return g, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (g *probeGraph) round() uint64 {
	var moved uint64
	var touched [probeDegree]uint32
	for s := 0; s < probeSweeps; s++ {
		for v := range g.label {
			g.label[v] = uint32(v)
		}
		for v := range g.label {
			nt := 0
			for e := g.off[v]; e < g.off[v+1]; e++ {
				l := g.label[g.adj[e]]
				if g.acc[l] == 0 {
					touched[nt] = l
					nt++
				}
				g.acc[l] += g.w[e]
			}
			best, bw := g.label[v], -1.0
			for _, l := range touched[:nt] {
				if a := g.acc[l]; a > bw || (a == bw && l < best) {
					best, bw = l, a
				}
				g.acc[l] = 0
			}
			if best != g.label[v] {
				moved++
			}
			g.label[v] = best
		}
	}
	clear(g.m)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeInserts; i++ {
		x = xorshift(x)
		g.m[uint32(x%probeKeys)] += float64(i & 7)
	}
	return moved + uint64(len(g.m))
}

type probeSample struct {
	at time.Time // the sample's midpoint
	ms float64
}

// probe times rounds on as many goroutines as the workload keeps busy: a
// parallel op waits for its slowest core, and so does a parallel round.
type probe struct {
	graphs  []*probeGraph
	cpu     time.Duration // CPU time the rounds took, left out of the run's
	samples []probeSample
}

var probeSink uint64

func newProbe(threads int) (*probe, error) {
	p := &probe{}
	for k := 0; k < max(threads, 1); k++ {
		g, err := newProbeGraph()
		if err != nil {
			p.close()
			return nil, err
		}
		p.graphs = append(p.graphs, g)
	}
	return p, nil
}

func (p *probe) close() {
	for _, g := range p.graphs {
		syscall.Munmap(g.mem)
	}
}

// sample times one round, run on every thread at once.
func (p *probe) sample() {
	c := cpuTime()
	t := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, len(p.graphs))
	for k, g := range p.graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[k] = g.round()
		}()
	}
	wg.Wait()
	d := time.Since(t)
	p.samples = append(p.samples, probeSample{t.Add(d / 2), ms(d)})
	for _, s := range sums {
		probeSink += s
	}
	p.cpu += cpuTime() - c
}

// last is when the latest sample was taken.
func (p *probe) last() time.Time { return p.samples[len(p.samples)-1].at }

// scale is the factor that takes a span from t0 to t1 to nominal host speed:
// the nominal round over the median of the samples within probeAround of the
// span. Between ops samples come at most probeEvery apart, and one follows
// every set-up and the window, so every span has one near it. The median
// keeps one sample's jitter out; the window is short enough to follow a
// tenant that slows the host for a few seconds.
func (p *probe) scale(t0, t1 time.Time) float64 {
	var near []float64
	for _, s := range p.samples {
		if !s.at.Before(t0.Add(-probeAround)) && !s.at.After(t1.Add(probeAround)) {
			near = append(near, s.ms)
		}
	}
	return probeNominalMs[len(p.graphs)] / median(near)
}

// times lists the samples' times from index from on.
func (p *probe) times(from int) []float64 {
	out := make([]float64, 0, len(p.samples)-from)
	for _, s := range p.samples[from:] {
		out = append(out, s.ms)
	}
	return out
}
