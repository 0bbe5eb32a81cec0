package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/metrics"
)

// faultOptions returns options for the fault matrix: generous superstep
// budget so heavy drop rates can drain their retransmission queues.
func faultOptions() Options {
	opt := DefaultOptions()
	opt.Ranks = 4
	opt.Infomap.MaxSweeps = 200
	return opt
}

// faultMatrix is the scenario set the acceptance criteria name: drop
// p ∈ {0.1, 0.5}, delayed deltas, duplicated deltas, one crashed rank, and
// everything at once.
func faultMatrix() map[string]fault.Config {
	drop10 := fault.Disabled()
	drop10.DropProb = 0.1
	drop50 := fault.Disabled()
	drop50.DropProb = 0.5
	delay := fault.Disabled()
	delay.DelayProb = 0.3
	dup := fault.Disabled()
	dup.DupProb = 0.2
	crash := fault.Disabled()
	crash.InjectCrash = true
	crash.CrashRank, crash.CrashStep, crash.CrashDownFor = 1, 2, 3
	all := fault.Disabled()
	all.DropProb, all.DupProb, all.DelayProb = 0.2, 0.1, 0.1
	all.InjectCrash = true
	all.CrashRank, all.CrashStep, all.CrashDownFor = 2, 3, 2
	return map[string]fault.Config{
		"drop10": drop10,
		"drop50": drop50,
		"delay":  delay,
		"dup":    dup,
		"crash":  crash,
		"all":    all,
	}
}

// TestFaultScheduleMatrixPreservesCodelength is the key invariant of the
// fault layer: under any injected fault schedule the run converges and its
// final codelength matches the fault-free run on the same seed — recovery
// preserves the algorithm, faults only cost communication and time.
func TestFaultScheduleMatrixPreservesCodelength(t *testing.T) {
	g, planted := plantedGraph(t)
	opt := faultOptions()
	free, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range faultMatrix() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			fopt := faultOptions()
			fopt.Fault = cfg
			res, err := Run(g, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Codelength-free.Codelength) > fopt.Infomap.MinImprovement {
				t.Fatalf("faulted codelength %.12f vs fault-free %.12f (diff %g > MinImprovement %g)",
					res.Codelength, free.Codelength,
					math.Abs(res.Codelength-free.Codelength), fopt.Infomap.MinImprovement)
			}
			if res.NumModules != 4 {
				t.Fatalf("found %d modules under faults, want 4", res.NumModules)
			}
			nmi, err := metrics.NMI(res.Membership, planted)
			if err != nil {
				t.Fatal(err)
			}
			if nmi < 0.95 {
				t.Fatalf("NMI %.3f against planted partition under faults", nmi)
			}
		})
	}
}

// TestFaultAccounting checks that each fault class shows up in the extended
// CommStats: drops trigger retries and backoff time, duplicates and crash
// replays count redelivered bytes, crashes count recoveries, and every run
// writes checkpoints.
func TestFaultAccounting(t *testing.T) {
	g, _ := plantedGraph(t)
	matrix := faultMatrix()

	run := func(name string) *Result {
		opt := faultOptions()
		opt.Fault = matrix[name]
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Comm.CheckpointBytes == 0 {
			t.Fatalf("%s: no checkpoint bytes recorded", name)
		}
		return res
	}

	d := run("drop50")
	if d.Comm.Drops == 0 || d.Fault.Drops == 0 {
		t.Fatalf("drop50 injected no drops: %+v %+v", d.Comm, d.Fault)
	}
	if d.Comm.Retries == 0 {
		t.Fatalf("drops without retries: %+v", d.Comm)
	}
	if d.Comm.BackoffSec <= 0 {
		t.Fatalf("retries without modeled backoff time: %+v", d.Comm)
	}
	if d.Comm.ModeledCommSec <= d.Comm.BackoffSec {
		t.Fatalf("backoff not in alpha-beta total: %+v", d.Comm)
	}

	dup := run("dup")
	if dup.Fault.Duplicates == 0 || dup.Comm.RedeliveredBytes == 0 {
		t.Fatalf("dup scenario redelivered nothing: %+v %+v", dup.Comm, dup.Fault)
	}

	delay := run("delay")
	if delay.Fault.Delays == 0 {
		t.Fatalf("delay scenario delayed nothing: %+v", delay.Fault)
	}

	crash := run("crash")
	if crash.Fault.Crashes != 1 {
		t.Fatalf("crash scenario crashed %d times, want 1", crash.Fault.Crashes)
	}
	if crash.Comm.Recoveries == 0 {
		t.Fatalf("crashed rank never recovered: %+v", crash.Comm)
	}

	free, err := Run(g, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if free.Comm.Drops != 0 || free.Comm.Retries != 0 || free.Comm.Recoveries != 0 ||
		free.Comm.RedeliveredBytes != 0 || free.Comm.BackoffSec != 0 {
		t.Fatalf("fault-free run recorded faults: %+v", free.Comm)
	}
	// Heavy drop costs strictly more modeled time than the clean network.
	if d.Comm.ModeledCommSec <= free.Comm.ModeledCommSec {
		t.Fatalf("drop50 modeled time %.9f not above fault-free %.9f",
			d.Comm.ModeledCommSec, free.Comm.ModeledCommSec)
	}
}

// membershipBytes serializes a membership for byte-identity comparison.
func membershipBytes(m []uint32) []byte {
	buf := make([]byte, 4*len(m))
	for i, v := range m {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return buf
}

// TestFaultReplayDeterminism extends the rng determinism guarantees to the
// fault layer: the same Seed and the same fault schedule must reproduce a
// byte-identical Membership, identical communication accounting, identical
// scan work and an identical canonical span tree.
func TestFaultReplayDeterminism(t *testing.T) {
	g, _ := plantedGraph(t)
	for name, cfg := range faultMatrix() {
		opt := faultOptions()
		opt.Fault = cfg
		a, atree := runTraced(t, g, opt)
		b, btree := runTraced(t, g, opt)
		if !bytes.Equal(membershipBytes(a.Membership), membershipBytes(b.Membership)) {
			t.Fatalf("%s: memberships differ between identical replays", name)
		}
		if a.Comm != b.Comm || a.Fault != b.Fault {
			t.Fatalf("%s: accounting differs between identical replays:\n%+v\n%+v", name, a.Comm, b.Comm)
		}
		if !reflect.DeepEqual(a.PerWorker, b.PerWorker) {
			t.Fatalf("%s: scan work differs between identical replays:\n%+v\n%+v", name, a.PerWorker, b.PerWorker)
		}
		if !bytes.Equal(atree, btree) {
			t.Fatalf("%s: canonical span trees differ between identical replays", name)
		}
	}
}

// TestFaultSeedChangesSchedule ensures the fault seed is independent of the
// algorithm seed: a different fault seed with drops enabled perturbs the
// injected schedule (but, per the matrix invariant, not the result quality).
func TestFaultSeedChangesSchedule(t *testing.T) {
	g, _ := plantedGraph(t)
	mk := func(seed uint64) *Result {
		opt := faultOptions()
		opt.Fault.DropProb = 0.3
		opt.Fault.Seed = seed
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(2)
	if a.Fault.Drops == b.Fault.Drops && a.Comm.Retries == b.Comm.Retries &&
		a.Comm.Bytes == b.Comm.Bytes {
		t.Fatalf("fault seeds 1 and 2 injected identical schedules: %+v", a.Fault)
	}
}

// TestFixedScheduleDropIsRetried pins a single drop with the fixed event
// schedule and checks the retransmission path end to end.
func TestFixedScheduleDropIsRetried(t *testing.T) {
	g, _ := plantedGraph(t)
	opt := faultOptions()
	opt.Fault.Schedule = []fault.Event{
		{Step: 0, From: 0, To: -1, Outcome: fault.Drop},
	}
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.Drops == 0 {
		t.Fatalf("scheduled drop not injected: %+v", res.Fault)
	}
	if res.Comm.Retries == 0 {
		t.Fatalf("scheduled drop not retried: %+v", res.Comm)
	}
	free, err := Run(g, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Codelength-free.Codelength) > opt.Infomap.MinImprovement {
		t.Fatalf("single scheduled drop changed codelength: %.12f vs %.12f",
			res.Codelength, free.Codelength)
	}
}

func TestRunContextCancellation(t *testing.T) {
	g, _ := plantedGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context returned %v, want context.Canceled", err)
	}

	// A deadline already in the past needs no sleep to be observed as expired.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := RunContext(dctx, g, DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestInvalidFaultConfigRejected routes fault.Config validation through
// dist.Options.
func TestInvalidFaultConfigRejected(t *testing.T) {
	g, _ := plantedGraph(t)
	opt := DefaultOptions()
	opt.Fault.DropProb = 1.5
	if _, err := Run(g, opt); err == nil {
		t.Fatal("DropProb 1.5 accepted")
	}
	opt = DefaultOptions()
	opt.CheckpointEvery = 0
	if _, err := Run(g, opt); err == nil {
		t.Fatal("CheckpointEvery 0 accepted")
	}
	opt = DefaultOptions()
	opt.MaxRetryBackoff = 0
	if _, err := Run(g, opt); err == nil {
		t.Fatal("MaxRetryBackoff 0 accepted")
	}
}

// TestCrashOfEveryRankIndividually crashes each rank in turn; the cluster
// must degrade gracefully (others keep moving), recover the dead rank from
// its checkpoint, and land on the fault-free codelength.
func TestCrashOfEveryRankIndividually(t *testing.T) {
	g, _ := plantedGraph(t)
	free, err := Run(g, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < 4; rk++ {
		opt := faultOptions()
		opt.Fault.InjectCrash = true
		opt.Fault.CrashRank = rk
		opt.Fault.CrashStep = 1
		opt.Fault.CrashDownFor = 2
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("crash rank %d: %v", rk, err)
		}
		if res.Comm.Recoveries == 0 {
			t.Fatalf("crash rank %d: no recovery", rk)
		}
		if math.Abs(res.Codelength-free.Codelength) > opt.Infomap.MinImprovement {
			t.Fatalf("crash rank %d: codelength %.12f vs fault-free %.12f",
				rk, res.Codelength, free.Codelength)
		}
	}
}
