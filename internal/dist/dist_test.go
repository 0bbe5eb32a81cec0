package dist

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/metrics"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/trace"
)

func plantedGraph(t *testing.T) (*graph.Graph, []uint32) {
	t.Helper()
	g, mem, err := gen.SBM(gen.SBMParams{Sizes: []int{50, 50, 50, 50}, PIn: 0.3, POut: 0.01}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return g, mem
}

// runTraced runs g under a fresh tracer and returns the result with its
// canonical span tree, after checking the tree's shape: one run span whose
// levels hold one sweep span per superstep, each with a FindBestCommunity
// and an UpdateMembers child, and one SweepLog entry per sweep. It also
// checks that every committed move is counted as MovesApplied work.
func runTraced(t *testing.T, g *graph.Graph, opt Options) (*Result, []byte) {
	t.Helper()
	tr := obs.New(obs.Config{Seed: 5})
	root := tr.Begin("dist")
	opt.Infomap.Trace = root
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	j, err := tr.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var roots []*obs.TreeNode
	if err := json.Unmarshal(j, &roots); err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || len(roots[0].Children) != 1 || roots[0].Children[0].Name != "run" {
		t.Fatalf("want dist → run, got %+v", roots)
	}
	levels, sweeps := 0, 0
	for _, lv := range roots[0].Children[0].Children {
		if lv.Name != "level" {
			continue
		}
		levels++
		for _, sw := range lv.Children {
			if sw.Name != "sweep" {
				continue
			}
			sweeps++
			if len(sw.Children) != 2 || sw.Children[0].Name != trace.KernelFindBestCommunity ||
				sw.Children[1].Name != trace.KernelUpdateMembers {
				t.Fatalf("sweep children %+v, want FindBestCommunity and UpdateMembers", sw.Children)
			}
		}
	}
	if levels != res.Levels || sweeps != res.Sweeps || len(res.SweepLog) != res.Sweeps ||
		res.Sweeps != res.Comm.Supersteps {
		t.Fatalf("%d level and %d sweep spans, %d SweepLog entries, %d supersteps; result has %d levels, %d sweeps",
			levels, sweeps, len(res.SweepLog), res.Comm.Supersteps, res.Levels, res.Sweeps)
	}
	// Every committed move is priced as move-apply work, per run and per
	// superstep.
	var logged uint64
	for _, s := range res.SweepLog {
		logged += s.Work.MovesApplied
	}
	if w := res.TotalWork().MovesApplied; w != res.Moves || logged != res.Moves || res.Moves == 0 {
		t.Fatalf("MovesApplied %d in TotalWork and %d in SweepLog, want Moves %d > 0", w, logged, res.Moves)
	}
	return res, j
}

func TestDistributedRecoversStructure(t *testing.T) {
	g, planted := plantedGraph(t)
	for _, ranks := range []int{1, 2, 4, 8} {
		opt := DefaultOptions()
		opt.Ranks = ranks
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if res.NumModules != 4 {
			t.Fatalf("ranks=%d: found %d modules, want 4", ranks, res.NumModules)
		}
		nmi, err := metrics.NMI(res.Membership, planted)
		if err != nil {
			t.Fatal(err)
		}
		if nmi < 0.95 {
			t.Fatalf("ranks=%d: NMI %.3f against planted partition", ranks, nmi)
		}
		if res.Codelength >= res.OneLevelCodelength {
			t.Fatalf("ranks=%d: no compression", ranks)
		}
	}
}

func TestDistributedMatchesSharedMemoryQuality(t *testing.T) {
	g, _ := plantedGraph(t)
	opt := DefaultOptions()
	opt.Ranks = 4
	d, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := infomap.Run(g, opt.Infomap)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Codelength-s.Codelength) > 0.05 {
		t.Fatalf("distributed L %.4f far from shared-memory L %.4f", d.Codelength, s.Codelength)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	g, _ := plantedGraph(t)
	single := DefaultOptions()
	single.Ranks = 1
	r1, err := Run(g, single)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Comm.Bytes != 0 || r1.Comm.Messages != 0 || r1.Comm.ModeledCommSec != 0 {
		t.Fatalf("single rank should not communicate: %+v", r1.Comm)
	}
	multi := DefaultOptions()
	multi.Ranks = 4
	r4, err := Run(g, multi)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Comm.Bytes == 0 || r4.Comm.Messages == 0 || r4.Comm.UpdatesSent == 0 {
		t.Fatalf("4 ranks must exchange deltas: %+v", r4.Comm)
	}
	if r4.Comm.ModeledCommSec <= 0 {
		t.Fatal("modeled communication time missing")
	}
	// Bytes = updates × wire size × (P−1).
	want := r4.Comm.UpdatesSent * uint64(multi.BytesPerUpdate) * 3
	if r4.Comm.Bytes != want {
		t.Fatalf("bytes %d, want %d", r4.Comm.Bytes, want)
	}
	if r4.Comm.Supersteps == 0 {
		t.Fatal("no supersteps counted")
	}
	// A superstep is one sweep of the driver: the traced run's span tree,
	// SweepLog and Sweeps all count it.
	traced, _ := runTraced(t, g, multi)
	if traced.Comm != r4.Comm {
		t.Fatalf("tracing changed the accounting: %+v vs %+v", traced.Comm, r4.Comm)
	}
}

func TestMoreRanksMoreMessages(t *testing.T) {
	g, _ := plantedGraph(t)
	opt2 := DefaultOptions()
	opt2.Ranks = 2
	r2, err := Run(g, opt2)
	if err != nil {
		t.Fatal(err)
	}
	opt8 := DefaultOptions()
	opt8.Ranks = 8
	r8, err := Run(g, opt8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Comm.Messages <= r2.Comm.Messages {
		t.Fatalf("8 ranks sent %d messages, 2 ranks %d; allgather volume must grow",
			r8.Comm.Messages, r2.Comm.Messages)
	}
}

func TestValidation(t *testing.T) {
	g, _ := plantedGraph(t)
	bad := DefaultOptions()
	bad.Ranks = 0
	if _, err := Run(g, bad); err == nil {
		t.Fatal("Ranks=0 accepted")
	}
	bad = DefaultOptions()
	bad.BytePerSec = 0
	if _, err := Run(g, bad); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = DefaultOptions()
	bad.Infomap.MaxSweeps = 0
	if _, err := Run(g, bad); err == nil {
		t.Fatal("MaxSweeps=0 accepted")
	}
}

func TestEmptyAndMoreRanksThanVertices(t *testing.T) {
	res, err := Run(graph.NewBuilder(0, false).Build(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Membership) != 0 {
		t.Fatal("empty graph produced membership")
	}
	b := graph.NewBuilder(3, false)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	opt := DefaultOptions()
	opt.Ranks = 64 // more ranks than vertices
	if _, err := Run(b.Build(), opt); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	g, _ := plantedGraph(t)
	opt := DefaultOptions()
	opt.Ranks = 4
	a, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Codelength != b.Codelength || a.Comm.Bytes != b.Comm.Bytes {
		t.Fatal("distributed simulation not deterministic under fixed seed")
	}
}

func TestMembershipAlwaysValid(t *testing.T) {
	g, _ := plantedGraph(t)
	for _, ranks := range []int{1, 3, 7} {
		opt := DefaultOptions()
		opt.Ranks = ranks
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		for _, m := range res.Membership {
			if int(m) >= res.NumModules {
				t.Fatalf("ranks=%d: module %d >= %d", ranks, m, res.NumModules)
			}
			seen[m] = true
		}
		if len(seen) != res.NumModules {
			t.Fatalf("ranks=%d: %d labels vs NumModules %d", ranks, len(seen), res.NumModules)
		}
	}
}

func TestAlphaBetaModelScaling(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	c := CommStats{Supersteps: 10, Bytes: 1 << 20}
	base := modeledCommTime(opt, c)
	// Doubling bytes raises transfer time.
	c2 := c
	c2.Bytes *= 2
	if modeledCommTime(opt, c2) <= base {
		t.Fatal("transfer time not increasing in bytes")
	}
	// More supersteps raise latency time.
	c3 := c
	c3.Supersteps *= 4
	if modeledCommTime(opt, c3) <= base {
		t.Fatal("latency time not increasing in supersteps")
	}
	// Single rank communicates for free.
	opt1 := DefaultOptions()
	opt1.Ranks = 1
	if modeledCommTime(opt1, c) != 0 {
		t.Fatal("single rank should cost 0")
	}
}
