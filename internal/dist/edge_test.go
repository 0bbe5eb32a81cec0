package dist

import (
	"testing"

	"github.com/asamap/asamap/internal/graph"
)

// The edge-case matrix from the robustness issue: more ranks than vertices,
// empty graph, single-vertex graph, and all vertices on one rank. Each must
// terminate (no hang), return a valid result, and report sane CommStats —
// with and without fault injection, since the fault paths index per-rank
// state that degenerate partitions stress.

func sanityCheckComm(t *testing.T, name string, c CommStats) {
	t.Helper()
	if c.Supersteps < 0 {
		t.Fatalf("%s: negative supersteps", name)
	}
	if c.ModeledCommSec < 0 || c.BackoffSec < 0 {
		t.Fatalf("%s: negative modeled time: %+v", name, c)
	}
	if c.Bytes > 0 && c.Messages == 0 {
		t.Fatalf("%s: bytes without messages: %+v", name, c)
	}
	if c.Retries > 0 && c.Drops == 0 {
		t.Fatalf("%s: retries without drops: %+v", name, c)
	}
}

func TestMoreRanksThanVerticesComm(t *testing.T) {
	b := graph.NewBuilder(3, false)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	opt := DefaultOptions()
	opt.Ranks = 64 // clamped to 3 live ranks internally
	res, err := Run(b.Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Membership) != 3 {
		t.Fatalf("membership length %d, want 3", len(res.Membership))
	}
	sanityCheckComm(t, "ranks>n", res.Comm)

	// Same shape with faults enabled, including a crash rank beyond the
	// clamped rank count (must be a no-op, not an index panic).
	opt.Fault.DropProb = 0.4
	opt.Fault.InjectCrash = true
	opt.Fault.CrashRank = 50
	opt.Fault.CrashStep = 0
	opt.Fault.CrashDownFor = 2
	opt.Infomap.MaxSweeps = 100
	res, err = Run(b.Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.Crashes != 0 {
		t.Fatalf("crash of out-of-range rank executed: %+v", res.Fault)
	}
	sanityCheckComm(t, "ranks>n faulted", res.Comm)
}

func TestEmptyGraphComm(t *testing.T) {
	opt := DefaultOptions()
	opt.Fault.DropProb = 0.5 // faults on an empty graph must be inert
	res, err := Run(graph.NewBuilder(0, false).Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Membership) != 0 {
		t.Fatal("empty graph produced membership")
	}
	if res.Comm != (CommStats{}) {
		t.Fatalf("empty graph communicated: %+v", res.Comm)
	}
}

func TestSingleVertexGraph(t *testing.T) {
	b := graph.NewBuilder(1, false)
	_ = b.AddEdge(0, 0, 2) // a self-loop keeps the flow model non-degenerate
	opt := DefaultOptions()
	opt.Ranks = 8
	res, err := Run(b.Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Membership) != 1 || res.Membership[0] != 0 {
		t.Fatalf("single vertex membership %v", res.Membership)
	}
	if res.NumModules != 1 {
		t.Fatalf("single vertex found %d modules", res.NumModules)
	}
	// One vertex lands on one rank: nothing to exchange, nothing to drop.
	if res.Comm.Messages != 0 || res.Comm.Bytes != 0 {
		t.Fatalf("single vertex communicated: %+v", res.Comm)
	}
	sanityCheckComm(t, "single-vertex", res.Comm)
}

func TestAllVerticesOnOneRank(t *testing.T) {
	// Ranks=1 puts every vertex on rank 0: the full algorithm runs with no
	// network, so fault injection has no messages to touch and a crash of
	// rank 0 only pauses (and then recovers) the single worker.
	g, _ := plantedGraph(t)
	opt := DefaultOptions()
	opt.Ranks = 1
	opt.Fault.DropProb = 0.5
	opt.Fault.InjectCrash = true
	opt.Fault.CrashRank = 0
	opt.Fault.CrashStep = 1
	opt.Fault.CrashDownFor = 2
	opt.Infomap.MaxSweeps = 100
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages != 0 || res.Comm.Bytes != 0 || res.Comm.Drops != 0 {
		t.Fatalf("single rank communicated: %+v", res.Comm)
	}
	if res.Fault.Crashes == 0 || res.Comm.Recoveries == 0 {
		t.Fatalf("single-rank crash not recovered: %+v %+v", res.Comm, res.Fault)
	}
	if res.NumModules != 4 {
		t.Fatalf("single rank found %d modules, want 4", res.NumModules)
	}
	sanityCheckComm(t, "one-rank", res.Comm)
}
