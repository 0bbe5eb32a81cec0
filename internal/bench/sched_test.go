package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSchedQuick runs the scheduling sweep end to end in quick mode and
// checks the invariants the committed artifact is built on: both policies at
// every worker count, bit-identical membership everywhere (runSched fails
// hard otherwise), and a JSON artifact that round-trips through the schema
// with no unknown fields.
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
// structs exactly, every (workers, policy) cell of the full sweep up to the
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
	for _, w := range DefaultConfig().Workers {
		if w <= report.GOMAXPROCS {
			workers = append(workers, w)
		}
	}
	for _, row := range report.Rows {
		if row.Workers > report.GOMAXPROCS {
			t.Errorf("workers=%d policy=%s: above the recorded gomaxprocs %d", row.Workers, row.Policy, report.GOMAXPROCS)
		}
	}
	checkSchedReport(t, report, workers)
}

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
	perWorkers := map[int]map[string]schedRow{}
	codelength := 0.0
	for _, row := range report.Rows {
		if perWorkers[row.Workers] == nil {
			perWorkers[row.Workers] = map[string]schedRow{}
		}
		perWorkers[row.Workers][row.Policy] = row
		if !row.BitIdentical {
			t.Errorf("workers=%d policy=%s: not bit-identical to the 1-worker reference", row.Workers, row.Policy)
		}
		if row.SweepWallMS <= 0 || row.TotalWallMS <= 0 {
			t.Errorf("workers=%d policy=%s: empty timings: %+v", row.Workers, row.Policy, row)
		}
		if codelength == 0 {
			codelength = row.Codelength
		} else if row.Codelength != codelength {
			// Bit-identical membership must mean bit-identical codelength; a
			// divergence here is schema or determinism drift.
			t.Errorf("workers=%d policy=%s: codelength %v != %v", row.Workers, row.Policy, row.Codelength, codelength)
		}
	}
	if len(perWorkers) != len(workers) {
		t.Errorf("artifact covers %d worker counts, want %d", len(perWorkers), len(workers))
	}
	for _, w := range workers {
		rows, ok := perWorkers[w]
		if !ok {
			t.Errorf("worker count %d missing from artifact", w)
			continue
		}
		for _, policy := range []string{"static", "steal"} {
			if _, ok := rows[policy]; !ok {
				t.Errorf("workers=%d: policy %s missing", w, policy)
			}
		}
	}
	if report.SpeedupStealVsStatic <= 0 {
		t.Errorf("speedup_steal_vs_static %v, want > 0", report.SpeedupStealVsStatic)
	}
}
