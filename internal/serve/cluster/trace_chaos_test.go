package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/obs/propagate"
	"github.com/asamap/asamap/internal/serve"
)

// mergedTrace is the JSON shape of the router's /debug/trace/{id} fan-out.
type mergedTrace struct {
	Trace     string             `json:"trace"`
	Nodes     []traceNodePayload `json:"nodes"`
	Canonical json.RawMessage    `json:"canonical"`
	Errors    map[string]string  `json:"errors"`
}

// detectTraced posts one detection request and returns (status, routing path,
// trace id, body). It also asserts the internal trace-context header never
// leaks onto a response to an external client.
func detectTraced(t *testing.T, base, graphHash string, seed uint64, workers int) (int, string, string, []byte) {
	t.Helper()
	body, _ := json.Marshal(serve.DetectRequest{
		Graph:   graphHash,
		Options: serve.DetectOptions{Seed: seed, Workers: workers},
	})
	resp, err := http.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if h := resp.Header.Get(propagate.Header); h != "" {
		t.Fatalf("X-Asamap-Trace leaked to the external client: %q", h)
	}
	return resp.StatusCode, resp.Header.Get(HeaderCluster), resp.Header.Get(propagate.ResponseHeader), raw
}

// fetchMergedTrace collects one distributed trace from the router, waiting
// out the tiny window between a response reaching the client and the
// server-side request span committing to the ring.
func fetchMergedTrace(t *testing.T, base, tid string) mergedTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/trace/" + tid)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var mt mergedTrace
			if err := json.Unmarshal(raw, &mt); err != nil {
				t.Fatalf("bad merged trace payload: %v\n%s", err, raw)
			}
			if routerSegment(mt) != nil {
				return mt
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never settled on the router: status %d body %s", tid, resp.StatusCode, raw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func routerSegment(mt mergedTrace) *traceNodePayload {
	for i := range mt.Nodes {
		if mt.Nodes[i].Node == -1 {
			for _, sp := range mt.Nodes[i].Spans {
				if sp.Name == "request" && !sp.Remote {
					return &mt.Nodes[i]
				}
			}
		}
	}
	return nil
}

// attemptSpanIDs indexes the attempt spans of a merged trace: the router's
// own (the roots remote hop-1 requests must stitch to) and the union across
// every segment (what deeper hops stitch to).
func attemptSpanIDs(mt mergedTrace) (router, all map[string]bool) {
	router, all = map[string]bool{}, map[string]bool{}
	for _, seg := range mt.Nodes {
		for _, sp := range seg.Spans {
			if sp.Name != "peer.attempt" {
				continue
			}
			all[sp.ID] = true
			if seg.Node == -1 {
				router[sp.ID] = true
			}
		}
	}
	return router, all
}

func attrValue(sp serve.SpanPayload, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestClusterTraceForwardedStitching: with no faults, a forwarded detect
// produces one distributed trace whose merged view carries both the router's
// and the owner's segments, with the replica's remote request span rooted
// under a router attempt span at hop 1.
func TestClusterTraceForwardedStitching(t *testing.T) {
	tc := newTestCluster(t, 3, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	status, path, tid, _ := detectTraced(t, tc.baseURL, hash, 3, 0)
	if status != http.StatusOK || path != "forwarded" {
		t.Fatalf("status %d path %q, want 200 forwarded", status, path)
	}
	if tid == "" {
		t.Fatal("no X-Asamap-Trace-Id on the detect response")
	}
	mt := fetchMergedTrace(t, tc.baseURL, tid)
	if mt.Trace != tid {
		t.Fatalf("merged trace id %q, want %q", mt.Trace, tid)
	}
	if len(mt.Nodes) < 2 {
		t.Fatalf("merged trace has %d node segments, want the router and an owner", len(mt.Nodes))
	}
	routerAttempts, allAttempts := attemptSpanIDs(mt)
	if len(routerAttempts) == 0 {
		t.Fatal("router segment has no attempt spans")
	}
	stitched := false
	for _, seg := range mt.Nodes {
		if seg.Node < 0 {
			continue
		}
		for _, sp := range seg.Spans {
			if sp.Name != "request" || !sp.Remote {
				continue
			}
			hop, _ := attrValue(sp, "hop")
			switch hop {
			case "1":
				// One forward deep: must root under a router attempt span.
				if !routerAttempts[sp.Parent] {
					t.Errorf("replica %d hop-1 request parent %s is not a router attempt span", seg.Node, sp.Parent)
				}
				stitched = true
			default:
				// Deeper hops (replica-to-replica cache probes, replication)
				// root under some attempt span in the merged set.
				if !allAttempts[sp.Parent] {
					t.Errorf("replica %d hop-%s request parent %s is not any attempt span", seg.Node, hop, sp.Parent)
				}
			}
		}
	}
	if !stitched {
		t.Fatal("no replica segment stitched to the router's attempt spans")
	}
	if len(mt.Canonical) == 0 || string(mt.Canonical) == "null" {
		t.Fatal("merged trace has no canonical tree")
	}

	// ?format=chrome renders one process track per node.
	resp, err := http.Get(tc.baseURL + "/debug/trace/" + tid + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	chrome := string(raw)
	for _, want := range []string{`"process_name"`, `"router"`, `"replica `, `"trace":"` + tid + `"`} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("chrome export missing %q:\n%.400s", want, chrome)
		}
	}

	// A forwarded collection request answers with the local segment only —
	// one hop of fan-out, never a storm.
	req, _ := http.NewRequest("GET", tc.srvs[0].URL+"/debug/trace/"+tid, nil)
	req.Header.Set(HeaderForwarded, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK && bytes.Contains(raw, []byte(`"nodes"`)) {
		t.Fatalf("forwarded collection fanned out instead of serving locally:\n%.300s", raw)
	}

	// Malformed and unknown IDs reject cleanly on the fan-out path too.
	for path, want := range map[string]int{
		"/debug/trace/nothex":           http.StatusBadRequest,
		"/debug/trace/ffffffffffffffff": http.StatusNotFound,
	} {
		resp, err := http.Get(tc.baseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// traceOutcome is one request's externally observable identity: its routing
// path and the trace it was recorded under.
type traceOutcome struct {
	Path    string
	TraceID string
}

// runTraceChaosScenario drives the seeded fault schedule from the chaos tier
// with per-request trace capture: 18 serial detects over two graphs with
// graph A's primary owner crashing and reviving mid-run, then collects every
// merged trace from the router. It returns the outcome sequence and each
// trace's canonical-tree bytes, and asserts the stitching invariants: every
// forwarded request that reports a replica segment roots it under a router
// attempt span at hop 1, and at least one request survived via a seeded
// retry.
func runTraceChaosScenario(t *testing.T, ref map[string][]byte, workers int) ([]traceOutcome, [][]byte) {
	t.Helper()
	tc := newTestCluster(t, 3, fault.Config{
		Seed:      1234,
		DropProb:  0.12,
		DupProb:   0.08,
		DelayProb: 0.08,
		FailProb:  0.12,
	})
	hashA := upload(t, tc.baseURL, graphA)
	hashB := upload(t, tc.baseURL, graphB)
	victim := NewRing(3, 64, 42).Owners(hashA, 2)[0]

	seeds := []uint64{1, 2, 3, 4, 5}
	var outcomes []traceOutcome
	for i := 0; i < 18; i++ {
		switch i {
		case 6:
			tc.down[victim].Store(true)
		case 12:
			tc.down[victim].Store(false)
		}
		hash := hashA
		if i%2 == 1 {
			hash = hashB
		}
		seed := seeds[i%len(seeds)]
		status, path, tid, body := detectTraced(t, tc.baseURL, hash, seed, workers)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d — a request was lost", i, status)
		}
		if !bytes.Equal(body, ref[refKey(hash, seed)]) {
			t.Fatalf("request %d: bytes differ from single-replica reference", i)
		}
		if tid == "" {
			t.Fatalf("request %d: no trace id", i)
		}
		outcomes = append(outcomes, traceOutcome{Path: path, TraceID: tid})
	}

	// Collect after the drive so trace fetches cannot perturb the router's
	// deterministic root-ID sequence between detects.
	canonical := make([][]byte, len(outcomes))
	retries, stitched := 0, 0
	for i, o := range outcomes {
		mt := fetchMergedTrace(t, tc.baseURL, o.TraceID)
		canonical[i] = append([]byte(nil), mt.Canonical...)

		routerAttempts, allAttempts := attemptSpanIDs(mt)
		for _, seg := range mt.Nodes {
			for _, sp := range seg.Spans {
				if sp.Name == "peer.attempt" {
					if v, ok := attrValue(sp, "attempt"); ok {
						if n, err := strconv.Atoi(v); err == nil && n > 0 {
							retries++
						}
					}
				}
				if sp.Name != "request" {
					continue
				}
				hop, _ := attrValue(sp, "hop")
				if !sp.Remote {
					// The externally issued request roots the trace at hop 0.
					if hop != "0" {
						t.Errorf("request %d: local root at hop %q, want 0", i, hop)
					}
					continue
				}
				switch hop {
				case "1":
					if !routerAttempts[sp.Parent] {
						t.Errorf("request %d: replica %d hop-1 request parent %s is not a router attempt span (path %s)",
							i, seg.Node, sp.Parent, o.Path)
					}
					if seg.Node >= 0 && o.Path == "forwarded" {
						stitched++
					}
				default:
					// A deeper hop's parent attempt lives on an intermediate
					// node; only insist on it when every segment was scraped.
					if len(mt.Errors) == 0 && !allAttempts[sp.Parent] {
						t.Errorf("request %d: replica %d hop-%s request parent %s is not any attempt span",
							i, seg.Node, hop, sp.Parent)
					}
				}
			}
		}
	}
	if retries == 0 {
		t.Error("no traced retry under a 40% fault rate — per-attempt spans are dead")
	}
	if stitched == 0 {
		t.Error("no forwarded request stitched a replica segment")
	}
	return outcomes, canonical
}

// TestClusterTraceChaosReplayDeterminism is the tracing acceptance test:
// under the seeded chaos schedule (drops, duplicates, delays, injected 5xx,
// crash/revive), every request yields one merged distributed trace whose hop
// structure matches its routing outcome — and both the outcome sequence and
// every trace's canonical bytes are identical across a chaos replay and
// across detection worker counts.
func TestClusterTraceChaosReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short")
	}
	s := serve.New(serve.DefaultConfig())
	srv := httptest.NewServer(s.Handler())
	hashA := upload(t, srv.URL, graphA)
	hashB := upload(t, srv.URL, graphB)
	srv.Close()
	s.Close()
	ref := reference(t, map[string]string{hashA: graphA, hashB: graphB}, []uint64{1, 2, 3, 4, 5})

	out1, canon1 := runTraceChaosScenario(t, ref, 1)
	out2, canon2 := runTraceChaosScenario(t, ref, 1) // identical replay
	out3, canon3 := runTraceChaosScenario(t, ref, 2) // worker-count variation

	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("request %d: outcome diverged across identical replays: %+v vs %+v",
				i, out1[i], out2[i])
		}
		if out1[i] != out3[i] {
			t.Fatalf("request %d: outcome diverged across worker counts: %+v vs %+v",
				i, out1[i], out3[i])
		}
		if !bytes.Equal(canon1[i], canon2[i]) {
			t.Errorf("request %d: canonical trace bytes diverged across identical replays:\n%s\nvs\n%s",
				i, canon1[i], canon2[i])
		}
		if !bytes.Equal(canon1[i], canon3[i]) {
			t.Errorf("request %d: canonical trace bytes diverged across worker counts:\n%s\nvs\n%s",
				i, canon1[i], canon3[i])
		}
	}
}
