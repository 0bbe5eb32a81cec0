package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/serve"
	"github.com/asamap/asamap/internal/trace"
)

// coldGraphs is how many R-MAT graphs serve-cold uploads (two in quick
// mode); requests cycle over them with a fresh seed each, so no two requests
// share a cache key.
func coldGraphs(quick bool) int {
	if quick {
		return 2
	}
	return 8
}

func coldShape(quick bool) shape {
	n := coldGraphs(quick)
	return shape{warmup: n, prefix: n, minOps: n, cycle: n}
}

// coldSampleEvery picks, past the prefix, which requests the in-process
// reference re-runs after the window.
const coldSampleEvery = 32

// coldInstance fixes the R-MAT instances serve-cold uploads, so that every
// workload seed serves the same graphs; the seed draws the requests.
const coldInstance = 1

// coldInputs are serve-cold's directed R-MAT edge lists (scale 11, edge
// factor 8; scale 7 in quick mode).
func coldInputs(quick bool) ([][]byte, error) {
	scale := 11
	if quick {
		scale = 7
	}
	r := rng.New(rng.Hash64(coldInstance ^ 0xc01d))
	out := make([][]byte, coldGraphs(quick))
	for i := range out {
		g, err := gen.RMAT(scale, 8, r.Split())
		if err != nil {
			return nil, err
		}
		if out[i], err = edgeList(g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// coldWarmSeed draws the warm-up requests in place of the workload seed, so
// set-up does the same work whatever the workload seed.
const coldWarmSeed = 0

// coldRequest is the i-th request of the sequence: which graph, which seed.
// Warm-up and measured requests differ in their index, and the index is
// mixed into the hash of the seed, not the seed itself, so that no two
// requests of a run share a cache key.
func coldRequest(seed uint64, graphs, i int) (int, uint64) {
	return i % graphs, rng.Hash64(rng.Hash64(seed)^uint64(i+1))>>1 | 1
}

// coldInputDigest commits the inputs a seed yields: the graph bytes and the
// first n requests past the warm-up.
func coldInputDigest(seed uint64, quick bool, n int) ([32]byte, error) {
	inputs, err := coldInputs(quick)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	for _, in := range inputs {
		h.Write(in)
	}
	warm := coldShape(quick).warmup
	for i := warm; i < warm+n; i++ {
		gi, s := coldRequest(seed, len(inputs), i)
		binary.Write(h, binary.LittleEndian, [2]uint64{uint64(gi), s})
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

// coldCheck is one request kept for the reference re-run.
type coldCheck struct {
	graph int
	seed  uint64
	resp  serve.DetectResponse
	fbcMs float64 // server-side FindBestCommunity time, when traced
	umMs  float64 // server-side UpdateMembers time, when traced
}

type serveCold struct {
	cfg      config
	rec      *recorder
	srv      *server
	infos    []serve.GraphInfo
	next     int // index of the next request
	measured int // requests past the warm-up
	checks   []coldCheck

	prefixStart, prefixEnd serve.MetricsSnapshot
	prefixOps              int
}

func newServeCold(cfg config, rec *recorder) *serveCold { return &serveCold{cfg: cfg, rec: rec} }

// setup uploads the graphs and drops its copies of them: finish regenerates
// them, so the heap read after the prefix holds the server's graphs alone.
func (c *serveCold) setup(ctx context.Context) error {
	inputs, err := coldInputs(c.cfg.quick)
	if err != nil {
		return err
	}
	if c.srv, err = startServer(); err != nil {
		return err
	}
	for _, in := range inputs {
		info, err := c.srv.upload(ctx, in, true)
		if err != nil {
			return err
		}
		c.infos = append(c.infos, info)
	}
	return nil
}

func (c *serveCold) op(ctx context.Context, mode opMode) (opSample, error) {
	drawn := c.cfg.seed
	if mode.warmup {
		drawn = coldWarmSeed
	}
	gi, seed := coldRequest(drawn, len(c.infos), c.next)
	c.next++
	info := c.infos[gi]

	var before serve.MetricsSnapshot
	if mode.traced {
		var err error
		if before, err = c.srv.snapshot(ctx); err != nil {
			return opSample{}, err
		}
	}
	resp, r, err := c.srv.detect(ctx, info.Hash, serve.DetectOptions{Seed: seed})
	if err != nil {
		return opSample{}, err
	}
	if err := checkDetect(resp, info, seed); err != nil {
		return opSample{}, err
	}
	sample := opSample{latency: r.latency, codelength: resp.Codelength}
	if mode.warmup {
		return sample, nil
	}
	keep := mode.prefix || c.measured%coldSampleEvery == 0
	c.measured++
	check := coldCheck{graph: gi, seed: seed, resp: resp}
	if mode.traced {
		spans, err := c.srv.spans(ctx, r)
		if err != nil {
			return opSample{}, err
		}
		after, err := c.srv.snapshot(ctx)
		if err != nil {
			return opSample{}, err
		}
		lt := serveLayers(c.rec, r.latency, spans, snapDelta{before, after})
		c.rec.add("serve.response_kb", float64(len(r.body))/1024)
		c.rec.keep(spans)
		check.fbcMs = lt.ms(trace.KernelFindBestCommunity)
		check.umMs = lt.ms(trace.KernelUpdateMembers)
		if mode.prefix {
			if c.prefixOps == 0 {
				c.prefixStart = before
			}
			c.prefixEnd = after
			c.prefixOps++
		}
	}
	if keep {
		c.checks = append(c.checks, check)
	}
	return sample, nil
}

// checkDetect is the per-request output check: the reply names the graph
// and seed asked for, assigns every vertex a module below the module count,
// and compresses no worse than the one-module code.
func checkDetect(resp serve.DetectResponse, info serve.GraphInfo, seed uint64) error {
	switch {
	case resp.Graph != info.Hash:
		return fmt.Errorf("reply for graph %s, asked %s", resp.Graph, info.Hash)
	case resp.Seed != seed:
		return fmt.Errorf("reply for seed %d, asked %d", resp.Seed, seed)
	case len(resp.Membership) != info.Vertices:
		return fmt.Errorf("membership has %d entries for %d vertices", len(resp.Membership), info.Vertices)
	case !(resp.Codelength > 0) || resp.Codelength > resp.OneLevelCodelength+1e-9:
		return fmt.Errorf("codelength %g outside (0, %g]", resp.Codelength, resp.OneLevelCodelength)
	}
	for v, m := range resp.Membership {
		if int(m) >= resp.NumModules {
			return fmt.Errorf("vertex %d in module %d of %d", v, m, resp.NumModules)
		}
	}
	return nil
}

// finish re-runs the kept requests in process, outside the window: the
// server must have returned exactly the partition and codelength that
// infomap.RunContext computes on the same graph, options and seed. The
// re-runs also supply the accumulator counts the wire omits.
func (c *serveCold) finish(ctx context.Context) error {
	inputs, err := coldInputs(c.cfg.quick)
	if err != nil {
		return err
	}
	graphs := make([]*graph.Graph, len(inputs))
	for i, in := range inputs {
		t := time.Now()
		g, _, err := graph.ReadEdgeList(bytes.NewReader(in), true)
		if err != nil {
			return err
		}
		parse := time.Since(t)
		t = time.Now()
		h := g.CanonicalHashString()
		c.rec.add("graph.canonical_hash_ms", ms(time.Since(t)))
		c.rec.add("graph.parse_ms", ms(parse))
		c.rec.add("graph.parse_mb_per_s", float64(len(in))/(1<<20)/parse.Seconds())
		if h != c.infos[i].Hash {
			return fmt.Errorf("graph %d: server hash %s, parsed bytes hash %s", i, c.infos[i].Hash, h)
		}
		graphs[i] = g
	}
	for k, chk := range c.checks {
		opt := infomap.DefaultOptions()
		opt.Seed = chk.seed
		res, err := infomap.RunContext(ctx, graphs[chk.graph], opt)
		if err != nil {
			return err
		}
		if err := sameResult(chk.resp, res); err != nil {
			return fmt.Errorf("graph %d seed %d: %w", chk.graph, chk.seed, err)
		}
		if k >= c.prefixOps {
			continue
		}
		st := res.TotalStats()
		recordCounts(c.rec, res, st, graphs[chk.graph].N())
		modeled := modeledMs(st, res.TotalWork(), "softhash")
		c.rec.count("perf.modeled_ms", modeled)
		c.rec.add("accum.ns_per_accumulate", chk.fbcMs*1e6/float64(st.Accumulates))
		c.rec.add("perf.modeled_over_measured", modeled/(chk.fbcMs+chk.umMs))
	}
	if c.prefixOps > 0 {
		recordServeCounts(c.rec, snapDelta{c.prefixStart, c.prefixEnd}, c.prefixOps)
	}
	return nil
}

// sameResult checks a server reply against the in-process run of the same
// graph, options and seed: runs are deterministic, so both must match
// exactly.
func sameResult(resp serve.DetectResponse, res *infomap.Result) error {
	if !slices.Equal(resp.Membership, res.Membership) {
		return fmt.Errorf("server membership differs from the in-process run")
	}
	if resp.Codelength != res.Codelength {
		return fmt.Errorf("server codelength %.12f, in-process %.12f", resp.Codelength, res.Codelength)
	}
	return nil
}

func (c *serveCold) close() {
	if c.srv != nil {
		c.srv.close()
	}
}
