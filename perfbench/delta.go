package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/serve"
	"github.com/asamap/asamap/internal/trace"
)

// deltaDepth is the lineage depth D after which the next step restarts from
// the base graph, so the per-step cost does not climb with run length.
func deltaDepth(quick bool) int {
	if quick {
		return 4
	}
	return 16
}

func deltaShape(quick bool) shape {
	d := deltaDepth(quick)
	// Warm-up is one whole lineage, so the window opens on a fresh one and
	// the prefix (whose counts are reported) is exactly the next lineage. A
	// step's cost climbs with its depth, so the input cycle is a lineage.
	return shape{warmup: d, prefix: d, minOps: d, cycle: d}
}

// warmEpsilon is how far a lineage's last warm codelength may sit from a
// cold run on the same version, relative to the cold codelength: the
// differential contract internal/infomap pins for one warm step. Drift
// accumulates over a lineage, so an absolute 0.02 bits is too tight at
// depth 16 (0.024 bits seen on a 5,000-vertex LFR lineage).
const warmEpsilon = 0.02

// deltaInstance fixes the LFR instance serve-delta evolves, so that every
// workload seed starts from the same graph; the seed draws the evolution.
const deltaInstance = 1

// deltaDetectSeed is every detect's seed, and deltaWarmSeed draws the
// warm-up lineage's evolution: set-up does the same work whatever the
// workload seed. A seed-drawn base partition and warm-up lineage moved
// set-up time by 40% from one workload seed to the next.
const (
	deltaDetectSeed = 0x5eed1
	deltaWarmSeed   = 0
)

// deltaInput is serve-delta's base graph: LFR with n=5000, mu=0.3 (n=400 in
// quick mode).
func deltaInput(quick bool) ([]byte, error) {
	n := 5000
	if quick {
		n = 400
	}
	g, _, err := gen.LFR(gen.DefaultLFR(n, 0.3), rng.New(rng.Hash64(deltaInstance^0xde17a)))
	if err != nil {
		return nil, err
	}
	return edgeList(g)
}

// planner generates the evolution: each step picks a random vertex with at
// least three neighbors, closes up to three open triangles through it, and
// drops one of its edges whose far end keeps another. It sees the lineage
// tip as the base graph plus the edges the lineage changed, so vertex IDs
// match the server's version and no step rebuilds the graph.
type planner struct {
	r     *rng.RNG
	base  *graph.Graph
	edits map[[2]uint32]bool  // edge {lo, hi} the lineage changed → present in the tip
	added map[uint32][]uint32 // far ends of the edges the lineage added, per vertex
}

func newPlanner(seed uint64, base *graph.Graph) *planner {
	p := &planner{r: rng.New(rng.Hash64(seed ^ 0x91a7)), base: base}
	p.restart()
	return p
}

// restart puts the tip back on the base graph.
func (p *planner) restart() {
	p.edits = map[[2]uint32]bool{}
	p.added = map[uint32][]uint32{}
}

func edgeKey(u, v uint32) [2]uint32 {
	if v < u {
		return [2]uint32{v, u}
	}
	return [2]uint32{u, v}
}

// has reports whether the tip has the edge {u, v}.
func (p *planner) has(u, v uint32) bool {
	if present, ok := p.edits[edgeKey(u, v)]; ok {
		return present
	}
	return p.base.HasArc(int(u), int(v))
}

// neighbors lists v's neighbors in the tip: the base graph's that remain,
// then the added ones in the order the lineage added them.
func (p *planner) neighbors(v uint32) []uint32 {
	var out []uint32
	for _, u := range p.base.OutNeighbors(int(v)) {
		if present, ok := p.edits[edgeKey(v, u)]; !ok || present {
			out = append(out, u)
		}
	}
	for _, u := range p.added[v] {
		if p.edits[edgeKey(v, u)] {
			out = append(out, u)
		}
	}
	return out
}

// next plans the delta that extends the tip by one step.
func (p *planner) next() *graph.Delta {
	for {
		v := uint32(p.r.Intn(p.base.N()))
		nb := p.neighbors(v)
		if len(nb) < 3 {
			continue
		}
		var d graph.Delta
		seen := map[[2]uint32]bool{}
		for tries := 0; tries < 32 && len(d.Ops) < 3; tries++ {
			a, b := nb[p.r.Intn(len(nb))], nb[p.r.Intn(len(nb))]
			if a > b {
				a, b = b, a
			}
			if a == b || a == v || b == v || seen[[2]uint32{a, b}] || p.has(a, b) {
				continue
			}
			seen[[2]uint32{a, b}] = true
			d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaAdd, From: a, To: b, Weight: 1})
		}
		if x := nb[p.r.Intn(len(nb))]; x != v && len(p.neighbors(x)) > 1 {
			d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaRemove, From: v, To: x})
		}
		if len(d.Ops) > 0 {
			return &d
		}
	}
}

// apply moves the tip past d, a delta next planned on it.
func (p *planner) apply(d *graph.Delta) {
	for _, op := range d.Ops {
		k := edgeKey(op.From, op.To)
		switch op.Op {
		case graph.DeltaAdd:
			if _, ok := p.edits[k]; !ok {
				p.added[op.From] = append(p.added[op.From], op.To)
				p.added[op.To] = append(p.added[op.To], op.From)
			}
			p.edits[k] = true
		case graph.DeltaRemove:
			p.edits[k] = false
		}
	}
}

// edgeChange is how many edges a planned delta adds to the tip: each add
// creates an edge, and the removal drops one that exists.
func edgeChange(d *graph.Delta) int {
	n := 0
	for _, op := range d.Ops {
		if op.Op == graph.DeltaAdd {
			n++
		} else {
			n--
		}
	}
	return n
}

// lineage is one measured lineage, kept for the checks after the window:
// its deltas, from which finish rebuilds the versions by replay, and what
// the server returned for the steps finish compares.
type lineage struct {
	deltas []*graph.Delta
	steps  []deltaStep // every step of the run's first lineage, none of later ones

	// The last step, set once the lineage reaches full depth.
	lastID         string
	lastEdges      int
	lastCodelength float64
}

// deltaStep is one step of the first measured lineage.
type deltaStep struct {
	seedMem []uint32 // the parent partition the warm run started from
	resp    serve.DetectResponse
	fbcMs   float64
	umMs    float64
}

type serveDelta struct {
	cfg   config
	rec   *recorder
	srv   *server
	depth int

	warm      *planner // evolves the warm-up lineage
	plan      *planner // evolves the measured lineages
	baseID    string
	baseEdges int
	baseResp  serve.DetectResponse
	tip       string
	tipDepth  int
	tipEdges  int
	tipMem    []uint32

	lineages    []lineage
	prefixStart serve.MetricsSnapshot
	prefixEnd   serve.MetricsSnapshot
	prefixOps   int
}

func newServeDelta(cfg config, rec *recorder) *serveDelta {
	return &serveDelta{cfg: cfg, rec: rec, depth: deltaDepth(cfg.quick)}
}

func (s *serveDelta) setup(ctx context.Context) error {
	data, err := deltaInput(s.cfg.quick)
	if err != nil {
		return err
	}
	t := time.Now()
	base, _, err := graph.ReadEdgeList(bytes.NewReader(data), false)
	if err != nil {
		return err
	}
	parse := time.Since(t)
	s.rec.add("graph.parse_ms", ms(parse))
	s.rec.add("graph.parse_mb_per_s", float64(len(data))/(1<<20)/parse.Seconds())
	// The warm-up lineage must not repeat a measured one, whose versions would
	// then be cached.
	warmSeed := uint64(deltaWarmSeed)
	if warmSeed == s.cfg.seed {
		warmSeed++
	}
	s.warm = newPlanner(warmSeed, base)
	s.plan = newPlanner(s.cfg.seed, base)
	s.baseEdges = base.NumEdges()
	if s.srv, err = startServer(); err != nil {
		return err
	}
	info, err := s.srv.upload(ctx, data, false)
	if err != nil {
		return err
	}
	if h := base.CanonicalHashString(); h != info.Hash {
		return fmt.Errorf("server hash %s, parsed bytes hash %s", info.Hash, h)
	}
	s.baseID = info.Hash
	resp, _, err := s.srv.detect(ctx, s.baseID, serve.DetectOptions{Seed: deltaDetectSeed})
	if err != nil {
		return err
	}
	if err := checkDetect(resp, info, deltaDetectSeed); err != nil {
		return err
	}
	s.baseResp = resp
	s.restart()
	return nil
}

func (s *serveDelta) restart() {
	s.warm.restart()
	s.plan.restart()
	s.tip, s.tipDepth, s.tipEdges, s.tipMem = s.baseID, 0, s.baseEdges, s.baseResp.Membership
}

func (s *serveDelta) op(ctx context.Context, mode opMode) (opSample, error) {
	var sample opSample
	if s.tipDepth == s.depth {
		s.restart()
	}
	plan := s.plan
	if mode.warmup {
		plan = s.warm
	}
	var d *graph.Delta
	var text bytes.Buffer
	if err := own(&sample.ownAlloc, func() error {
		d = plan.next()
		return d.WriteDeltaList(&text)
	}); err != nil {
		return opSample{}, err
	}
	var before serve.MetricsSnapshot
	if mode.traced {
		var err error
		if before, err = s.srv.snapshot(ctx); err != nil {
			return opSample{}, err
		}
	}

	var info serve.VersionInfo
	up, err := s.srv.callJSON(ctx, http.MethodPost, "/v1/graphs/"+s.tip+"/delta", text.Bytes(), http.StatusCreated, &info)
	if err != nil {
		return opSample{}, err
	}
	resp, det, err := s.srv.detect(ctx, info.ID, serve.DetectOptions{Seed: deltaDetectSeed, WarmStart: true})
	if err != nil {
		return opSample{}, err
	}
	sample.latency = up.latency + det.latency
	sample.codelength = resp.Codelength
	step := s.tipDepth + 1
	if err := own(&sample.ownAlloc, func() error { return s.check(d, info, resp, step) }); err != nil {
		return opSample{}, err
	}

	kept := deltaStep{seedMem: s.tipMem, resp: resp}
	if mode.traced {
		upSpans, err := s.srv.spans(ctx, up)
		if err != nil {
			return opSample{}, err
		}
		detSpans, err := s.srv.spans(ctx, det)
		if err != nil {
			return opSample{}, err
		}
		after, err := s.srv.snapshot(ctx)
		if err != nil {
			return opSample{}, err
		}
		spans := append(upSpans, detSpans...)
		lt := serveLayers(s.rec, sample.latency, spans, snapDelta{before, after})
		s.rec.keep(spans)
		s.rec.add("serve.delta_upload_ms", ms(up.latency))
		s.rec.add("serve.warm_detect_ms", ms(det.latency))
		s.rec.add("serve.lineage_depth", float64(step))
		s.rec.add("serve.response_kb", float64(len(det.body))/1024)
		kept.fbcMs = lt.ms(trace.KernelFindBestCommunity)
		kept.umMs = lt.ms(trace.KernelUpdateMembers)
		if mode.prefix {
			if s.prefixOps == 0 {
				s.prefixStart = before
			}
			s.prefixEnd = after
			s.prefixOps++
		}
	}
	if !mode.warmup {
		if step == 1 {
			s.lineages = append(s.lineages, lineage{})
		}
		ln := &s.lineages[len(s.lineages)-1]
		ln.deltas = append(ln.deltas, d)
		if mode.prefix {
			ln.steps = append(ln.steps, kept)
		}
		if step == s.depth {
			ln.lastID, ln.lastEdges, ln.lastCodelength = info.ID, info.Edges, resp.Codelength
		}
	}

	plan.apply(d)
	s.tip, s.tipDepth, s.tipEdges, s.tipMem = info.ID, step, info.Edges, resp.Membership
	return sample, nil
}

// check is the per-step output check: the version chains from the tip under
// the id the delta hash predicts, with the edge count the delta gives, and
// the warm run walked a lineage of the right depth and re-optimized a
// non-empty frontier.
func (s *serveDelta) check(d *graph.Delta, info serve.VersionInfo, resp serve.DetectResponse, step int) error {
	parentSum, err := hex.DecodeString(s.tip)
	if err != nil || len(parentSum) != sha256.Size {
		return fmt.Errorf("tip id %q is not a digest", s.tip)
	}
	want := d.Hash([32]byte(parentSum))
	switch {
	case info.ID != hex.EncodeToString(want[:]):
		return fmt.Errorf("version id %s, delta hash gives %x", info.ID, want)
	case info.Parent != s.tip || info.Depth != step:
		return fmt.Errorf("version %s: parent %s depth %d, want %s depth %d", info.ID, info.Parent, info.Depth, s.tip, step)
	case info.Edges != s.tipEdges+edgeChange(d):
		return fmt.Errorf("version %s has %d edges, want %d", info.ID, info.Edges, s.tipEdges+edgeChange(d))
	case resp.Warm == nil:
		return fmt.Errorf("detect on %s returned no warm-start info", info.ID)
	case resp.Warm.Depth != step || resp.Warm.Parent != s.tip:
		return fmt.Errorf("warm detect depth %d parent %s, want %d %s", resp.Warm.Depth, resp.Warm.Parent, step, s.tip)
	case resp.Warm.FrontierSize <= 0:
		return fmt.Errorf("warm detect re-optimized an empty frontier")
	}
	return checkDetect(resp, serve.GraphInfo{Hash: info.ID, Vertices: s.plan.base.N()}, deltaDetectSeed)
}

// finish rebuilds the measured versions by replaying each lineage's deltas
// onto the base graph, outside the window. The first lineage's warm steps
// must equal an in-process warm run from the same parent partition and
// frontier (which also yields their accumulator counts), and every complete
// lineage's last warm codelength must be within warmEpsilon of a cold run on
// that version.
func (s *serveDelta) finish(ctx context.Context) error {
	for _, ln := range s.lineages {
		g := s.plan.base
		for k, st := range ln.steps {
			d := ln.deltas[k]
			t := time.Now()
			child, err := d.Apply(g)
			if err != nil {
				return err
			}
			s.rec.add("graph.delta_apply_ms", ms(time.Since(t)))
			t = time.Now()
			child.CanonicalHash()
			s.rec.add("graph.canonical_hash_ms", ms(time.Since(t)))
			opt := infomap.DefaultOptions()
			opt.Seed = deltaDetectSeed
			opt.WarmStart = st.seedMem
			opt.FrontierSeeds = d.Touched()
			opt.FrontierHops = serve.DefaultFrontierHops
			res, err := infomap.RunContext(ctx, child, opt)
			if err != nil {
				return err
			}
			if err := sameResult(st.resp, res); err != nil {
				return fmt.Errorf("version %s: %w", st.resp.Graph, err)
			}
			if k < s.prefixOps {
				stats := res.TotalStats()
				recordCounts(s.rec, res, stats, child.N())
				modeled := modeledMs(stats, res.TotalWork(), "softhash")
				s.rec.count("perf.modeled_ms", modeled)
				s.rec.add("accum.ns_per_accumulate", st.fbcMs*1e6/float64(stats.Accumulates))
				s.rec.add("perf.modeled_over_measured", modeled/(st.fbcMs+st.umMs))
			}
			g = child
		}
		if ln.lastID == "" {
			continue // the window closed mid-lineage
		}
		// The lineage's ops replayed as one batch build the same graph as
		// its versions one after another, in one rebuild instead of D.
		var all graph.Delta
		for _, d := range ln.deltas {
			all.Ops = append(all.Ops, d.Ops...)
		}
		last, err := all.Apply(s.plan.base)
		if err != nil {
			return err
		}
		if last.NumEdges() != ln.lastEdges {
			return fmt.Errorf("version %s: replay gives %d edges, the server %d", ln.lastID, last.NumEdges(), ln.lastEdges)
		}
		opt := infomap.DefaultOptions()
		opt.Seed = deltaDetectSeed
		res, err := infomap.RunContext(ctx, last, opt)
		if err != nil {
			return err
		}
		if rel := math.Abs(ln.lastCodelength-res.Codelength) / res.Codelength; rel > warmEpsilon {
			return fmt.Errorf("version %s: warm codelength %.6f is %.4f (relative) from cold %.6f",
				ln.lastID, ln.lastCodelength, rel, res.Codelength)
		}
	}
	if s.prefixOps > 0 {
		recordServeCounts(s.rec, snapDelta{s.prefixStart, s.prefixEnd}, s.prefixOps)
	}
	return nil
}

func (s *serveDelta) close() {
	if s.srv != nil {
		s.srv.close()
	}
}

// deltaInputDigest commits the inputs a seed yields: the base graph bytes
// and the delta batches of the first n measured steps, lineage restarts
// included.
func deltaInputDigest(seed uint64, quick bool, n int) ([32]byte, error) {
	data, err := deltaInput(quick)
	if err != nil {
		return [32]byte{}, err
	}
	base, _, err := graph.ReadEdgeList(bytes.NewReader(data), false)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	h.Write(data)
	p := newPlanner(seed, base)
	depth := deltaDepth(quick)
	for i := 0; i < n; i++ {
		if i%depth == 0 {
			p.restart()
		}
		d := p.next()
		if err := d.WriteDeltaList(h); err != nil {
			return [32]byte{}, err
		}
		p.apply(d)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}
