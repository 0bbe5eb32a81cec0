package bench

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runExp executes one experiment in quick mode and returns its output.
func runExp(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(QuickConfig(), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	// Every table and figure of the paper's evaluation must be present.
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !seen[id] {
			t.Fatalf("paper artifact %s has no runner", id)
		}
	}
}

func TestTable1ListsAllNetworks(t *testing.T) {
	out := runExp(t, "table1")
	for _, name := range []string{"Amazon", "DBLP", "YouTube", "soc-Pokec", "LiveJournal", "Orkut"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table1 missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "117185083") {
		t.Fatal("table1 missing the paper's Orkut edge count")
	}
}

func TestTable2ShowsCacheDifference(t *testing.T) {
	out := runExp(t, "table2")
	if !strings.Contains(out, "20MB") || !strings.Contains(out, "16MB") {
		t.Fatalf("table2 must show the 20MB vs 16MB L3 difference:\n%s", out)
	}
}

// parseColumn extracts float values captured by re's first group.
func parseColumn(t *testing.T, out string, re *regexp.Regexp) []float64 {
	t.Helper()
	var vals []float64
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", m[1], err)
		}
		vals = append(vals, v)
	}
	return vals
}

var speedupRe = regexp.MustCompile(`(\d+\.\d+)x`)

func TestTable5SpeedupInPaperBand(t *testing.T) {
	out := runExp(t, "table5")
	speedups := parseColumn(t, out, speedupRe)
	if len(speedups) != len(table5Networks) {
		t.Fatalf("expected %d speedups, got %v\n%s", len(table5Networks), speedups, out)
	}
	// Paper band 3.28–5.56×, widened for replica noise.
	for i, s := range speedups {
		if s < 2.0 || s > 8.0 {
			t.Fatalf("%s speedup %.2fx outside plausible band (paper: 3.28–5.56x)\n%s",
				table5Networks[i], s, out)
		}
	}
}

func TestFig2HashShareInPaperBand(t *testing.T) {
	out := runExp(t, "fig2")
	re := regexp.MustCompile(`HashOperations (\d+\.\d+)%`)
	shares := parseColumn(t, out, re)
	if len(shares) != 2 {
		t.Fatalf("expected 2 hash shares:\n%s", out)
	}
	for _, s := range shares {
		// Paper: 50–65%; allow slack for replica noise.
		if s < 40 || s > 75 {
			t.Fatalf("hash share %.1f%% far from paper's 50-65%% band\n%s", s, out)
		}
	}
	if !strings.Contains(out, "FindBestCommunity") {
		t.Fatal("fig2 missing kernel breakdown")
	}
}

func TestFig5CoverageShape(t *testing.T) {
	out := runExp(t, "fig5")
	re := regexp.MustCompile(`(\d+\.\d+)%`)
	vals := parseColumn(t, out, re)
	if len(vals) != 6*4 {
		t.Fatalf("expected 24 coverage values, got %d\n%s", len(vals), out)
	}
	// Coverage must be monotone per row and high at 8KB.
	for row := 0; row < 6; row++ {
		for col := 1; col < 4; col++ {
			if vals[row*4+col] < vals[row*4+col-1]-1e-9 {
				t.Fatalf("coverage not monotone in CAM size (row %d):\n%s", row, out)
			}
		}
		if vals[row*4+3] < 95 {
			t.Fatalf("8KB coverage %.2f%% below expectation (paper: >99%%)\n%s", vals[row*4+3], out)
		}
	}
}

func TestFig8ReductionsInPaperBand(t *testing.T) {
	out := runExp(t, "fig8")
	re := regexp.MustCompile(`(\d+\.\d+)%`)
	vals := parseColumn(t, out, re)
	// 3 networks × 3 reductions.
	if len(vals) != 9 {
		t.Fatalf("expected 9 percentages, got %d\n%s", len(vals), out)
	}
	for i := 0; i < len(vals); i += 3 {
		instr, mpred, cpi := vals[i], vals[i+1], vals[i+2]
		if instr < 10 || instr > 45 {
			t.Fatalf("instruction reduction %.1f%% outside band (paper: up to 24%%)\n%s", instr, out)
		}
		if mpred < 35 || mpred > 80 {
			t.Fatalf("misprediction reduction %.1f%% outside band (paper: ~59%%)\n%s", mpred, out)
		}
		if cpi < 10 || cpi > 40 {
			t.Fatalf("CPI reduction %.1f%% outside band (paper: 18-21%%)\n%s", cpi, out)
		}
	}
}

func TestTables3And4Run(t *testing.T) {
	for _, id := range []string{"table3", "table4"} {
		out := runExp(t, id)
		if !strings.Contains(out, "Native (s)") || !strings.Contains(out, "Baseline (s)") {
			t.Fatalf("%s missing columns:\n%s", id, out)
		}
		if !strings.Contains(out, "calibrated") {
			t.Fatalf("%s must disclose calibration:\n%s", id, out)
		}
	}
}

func TestFig6MatchesTable5(t *testing.T) {
	out := runExp(t, "fig6")
	speedups := parseColumn(t, out, speedupRe)
	if len(speedups) != len(table5Networks) {
		t.Fatalf("fig6 rows: %v", speedups)
	}
}

func TestFig7Breakdown(t *testing.T) {
	out := runExp(t, "fig7")
	if !strings.Contains(out, "Amazon") || !strings.Contains(out, "DBLP") {
		t.Fatalf("fig7 missing networks:\n%s", out)
	}
	// Hash-time reduction per row: paper reports 68–77%; the band follows
	// from 1 - 1/speedup, so ~60–85% here.
	re := regexp.MustCompile(`(\d+\.\d+)%`)
	for _, v := range parseColumn(t, out, re) {
		if v < 50 || v > 92 {
			t.Fatalf("hash reduction %.1f%% outside plausible band\n%s", v, out)
		}
	}
}

func TestFigs9Through11(t *testing.T) {
	for _, id := range []string{"fig9", "fig10", "fig11"} {
		out := runExp(t, id)
		if !strings.Contains(out, "cores") || !strings.Contains(out, "Baseline") {
			t.Fatalf("%s output malformed:\n%s", id, out)
		}
	}
}

func TestLFRQuality(t *testing.T) {
	out := runExp(t, "lfr")
	if !strings.Contains(out, "Infomap") || !strings.Contains(out, "Louvain") {
		t.Fatalf("lfr output:\n%s", out)
	}
	// At mu=0.1 Infomap must essentially recover the planted partition.
	re := regexp.MustCompile(`0\.10\s+(\d\.\d+)`)
	vals := parseColumn(t, out, re)
	if len(vals) == 0 || vals[0] < 0.9 {
		t.Fatalf("Infomap NMI at mu=0.1 too low:\n%s", out)
	}
}

func TestSpGEMM(t *testing.T) {
	out := runExp(t, "spgemm")
	if !strings.Contains(out, "softhash") || !strings.Contains(out, "asa") {
		t.Fatalf("spgemm output:\n%s", out)
	}
	re := regexp.MustCompile(`speedup: (\d+\.\d+)x`)
	vals := parseColumn(t, out, re)
	if len(vals) != 1 || vals[0] < 1.2 {
		t.Fatalf("spgemm accumulation speedup %v should favor ASA:\n%s", vals, out)
	}
}

func TestCAMSweepMonotone(t *testing.T) {
	out := runExp(t, "camsweep")
	// Overflow share (the first percentage on each data row) must be
	// non-increasing with CAM size.
	re := regexp.MustCompile(`(?m)^\s*\d+\s+\d+\s+(\d+\.\d+)%`)
	shares := parseColumn(t, out, re)
	if len(shares) < 4 {
		t.Fatalf("camsweep output:\n%s", out)
	}
	for i := 1; i < len(shares); i++ {
		if shares[i] > shares[i-1]+1e-9 {
			t.Fatalf("overflow share not monotone: %v\n%s", shares, out)
		}
	}
}

func TestEvictPolicies(t *testing.T) {
	out := runExp(t, "evict")
	for _, pol := range []string{"LRU", "FIFO", "Random"} {
		if !strings.Contains(out, pol) {
			t.Fatalf("evict missing %s:\n%s", pol, out)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is covered per-experiment; skip the full pass in -short")
	}
	var buf bytes.Buffer
	if err := RunAll(QuickConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if !strings.Contains(buf.String(), e.ID) {
			t.Fatalf("RunAll output missing %s", e.ID)
		}
	}
}

func TestFmtEng(t *testing.T) {
	cases := map[float64]string{
		5:      "5.00",
		5123:   "5.12K",
		2.4e6:  "2.40M",
		3.1e9:  "3.10G",
		2.4e12: "2.40T",
	}
	for in, want := range cases {
		if got := fmtEng(in); got != want {
			t.Fatalf("fmtEng(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestHierarchyExperiment(t *testing.T) {
	out := runExp(t, "hierarchy")
	if !strings.Contains(out, "hierarchical L") || !strings.Contains(out, "two-level L") {
		t.Fatalf("hierarchy output:\n%s", out)
	}
	if !strings.Contains(out, "recovered the 4 planted super groups") {
		t.Fatalf("hierarchy did not recover planted structure:\n%s", out)
	}
	re := regexp.MustCompile(`gain:\s+(\d+\.\d+)%`)
	gains := parseColumn(t, out, re)
	if len(gains) != 1 || gains[0] <= 0 {
		t.Fatalf("hierarchy gain %v should be positive:\n%s", gains, out)
	}
}

// TestDistributedExperiment pins X7's shape at quick scale: one rank
// exchanges nothing, the volume moved grows strictly with the rank count,
// stale ghost state keeps every row's codelength within 1% of the one-rank
// row, and the ranks' candidate scans are counted.
func TestDistributedExperiment(t *testing.T) {
	out := runExp(t, "distributed")
	re := regexp.MustCompile(`(?m)^\s*(\d+)\s+\d+\s+(\d+\.\d+)\s+\d+\s+(\d+)\s+(\d+\.\d+)\s+\d+\.\d+\s+(\d+)$`)
	rows := re.FindAllStringSubmatch(out, -1)
	if len(rows) != 5 {
		t.Fatalf("want 5 rank rows, got %d:\n%s", len(rows), out)
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if rows[0][1] != "1" || num(rows[0][3]) != 0 || num(rows[0][4]) != 0 {
		t.Fatalf("1-rank row must move 0 updates and 0 MB: %q", rows[0][0])
	}
	l1 := num(rows[0][2])
	for i, row := range rows {
		if l := num(row[2]); math.Abs(l-l1) > 0.01*l1 {
			t.Errorf("ranks=%s: L %.4f more than 1%% from the 1-rank %.4f", row[1], l, l1)
		}
		if num(row[5]) == 0 {
			t.Errorf("ranks=%s: no candidates evaluated", row[1])
		}
		if i > 0 && num(row[4]) <= num(rows[i-1][4]) {
			t.Errorf("ranks=%s: MB moved %s does not exceed %s at ranks=%s",
				row[1], row[4], rows[i-1][4], rows[i-1][1])
		}
	}
}

func TestCacheSimExperiment(t *testing.T) {
	out := runExp(t, "cachesim")
	if !strings.Contains(out, "L1 miss rate") || !strings.Contains(out, "ASA on the same arc stream") {
		t.Fatalf("cachesim output:\n%s", out)
	}
	re := regexp.MustCompile(`memory touches\s+(\d+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no memory touches reported:\n%s", out)
	}
	if v, _ := strconv.Atoi(m[1]); v == 0 {
		t.Fatal("zero memory touches")
	}
}
