package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSchedQuick runs the scheduling sweep end to end in quick mode and
// checks the invariants the committed artifact is built on: one row per
// worker count, bit-identical membership everywhere (runSched fails hard
// otherwise), and a JSON artifact that round-trips through the schema with
// no unknown fields.
func TestSchedQuick(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "sched.json")
	cfg := QuickConfig()
	cfg.JSONPath = jsonPath
	e, err := ByID("sched")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatalf("sched: %v\n%s", err, buf.String())
	}
	report := decodeSchedReport(t, jsonPath)
	if !report.Quick {
		t.Error("quick run not flagged in artifact")
	}
	checkSchedReport(t, report, cfg.Workers)
}

// TestCommittedSchedArtifact guards the repository's committed
// BENCH_sched.json trajectory artifact: the schema must match this package's
// structs exactly, exactly one row for every worker count from 1 up to the
// recorded GOMAXPROCS must be present and none above it (an artifact may
// claim only the worker scaling its host could exhibit), and every row must
// witness the determinism contract.
func TestCommittedSchedArtifact(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_sched.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("committed artifact missing: %v (regenerate with `asabench -exp sched -workers <counts up to GOMAXPROCS> -json BENCH_sched.json`)", err)
	}
	report := decodeSchedReport(t, path)
	if report.Quick {
		t.Error("committed artifact was generated in quick mode; regenerate at full scale")
	}
	if report.SchemaVersion != SchedSchemaVersion {
		t.Errorf("artifact schema version %d, package expects %d — regenerate",
			report.SchemaVersion, SchedSchemaVersion)
	}
	if report.Scale != 17 {
		t.Errorf("artifact scale %d, want the full-sweep scale 17", report.Scale)
	}
	if report.GOMAXPROCS < 1 {
		t.Fatalf("artifact records gomaxprocs %d", report.GOMAXPROCS)
	}
	var workers []int
	for w := 1; w <= report.GOMAXPROCS; w++ {
		workers = append(workers, w)
	}
	for _, row := range report.Rows {
		if row.Workers > report.GOMAXPROCS {
			t.Errorf("workers=%d: above the recorded gomaxprocs %d", row.Workers, report.GOMAXPROCS)
		}
	}
	checkSchedReport(t, report, workers)
	// The scheduler never changes result bytes, so the committed codelength
	// is pinned across regenerations on any host.
	for _, row := range report.Rows {
		if row.Codelength != committedSchedCodelength {
			t.Errorf("workers=%d: codelength %v, want %v", row.Workers, row.Codelength, committedSchedCodelength)
		}
	}
}

// committedSchedCodelength is the codelength of R-MAT scale 17, edge factor
// 8, seed 1 under DefaultOptions — the committed artifact's graph.
const committedSchedCodelength = 14.958132741336891

func decodeSchedReport(t *testing.T, path string) schedReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var report schedReport
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("%s does not match the sched schema: %v", path, err)
	}
	return report
}

// checkSchedReport asserts the structural and acceptance invariants shared
// by quick and committed artifacts.
func checkSchedReport(t *testing.T, report schedReport, workers []int) {
	t.Helper()
	if report.Experiment != "sched" {
		t.Errorf("experiment %q, want sched", report.Experiment)
	}
	if report.Generator != "rmat" || report.Vertices <= 0 || report.Arcs <= 0 {
		t.Errorf("bad graph provenance: %+v", report)
	}
	perWorkers := map[int]int{}
	codelength := 0.0
	for _, row := range report.Rows {
		perWorkers[row.Workers]++
		if !row.BitIdentical {
			t.Errorf("workers=%d: not bit-identical to the 1-worker reference", row.Workers)
		}
		if row.SweepWallMS <= 0 || row.TotalWallMS <= 0 {
			t.Errorf("workers=%d: empty timings: %+v", row.Workers, row)
		}
		// The kernel spans nest inside the run span, one after another.
		// Each figure is whole microseconds, so 1ns of slack absorbs only
		// the float rounding of the ms conversion.
		if row.SweepWallMS+row.CommitWallMS > row.TotalWallMS+1e-6 {
			t.Errorf("workers=%d: sweep %.3fms + commit %.3fms > total %.3fms",
				row.Workers, row.SweepWallMS, row.CommitWallMS, row.TotalWallMS)
		}
		if codelength == 0 {
			codelength = row.Codelength
		} else if row.Codelength != codelength {
			// Bit-identical membership must mean bit-identical codelength; a
			// divergence here is schema or determinism drift.
			t.Errorf("workers=%d: codelength %v != %v", row.Workers, row.Codelength, codelength)
		}
	}
	if len(perWorkers) != len(workers) {
		t.Errorf("artifact covers %d worker counts, want %d", len(perWorkers), len(workers))
	}
	for _, w := range workers {
		if n := perWorkers[w]; n != 1 {
			t.Errorf("worker count %d has %d rows, want exactly 1", w, n)
		}
	}
}
