package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/serve"
)

// graphToken stands for the uploaded graph's hash in a parity body.
const graphToken = "GRAPH"

// parityBodies are detect bodies whose answer must not depend on which node
// receives them. They are the table of TestDetectParity and the seed corpus
// of FuzzDetectRequest.
var parityBodies = []struct {
	name   string
	body   string
	status int
}{
	{"plain", `{"graph":"GRAPH"}`, http.StatusOK},
	{"trailing newline", "{\"graph\":\"GRAPH\"}\n", http.StatusOK},
	{"trailing whitespace", "{\"graph\":\"GRAPH\",\"options\":{\"seed\":3}} \t\r\n  ", http.StatusOK},
	{"trailing garbage", `{"graph":"GRAPH"} xyz`, http.StatusBadRequest},
	{"stray brace", `{"graph":"GRAPH"}}`, http.StatusBadRequest},
	{"second object", `{"graph":"GRAPH"}{"graph":"GRAPH"}`, http.StatusBadRequest},
	{"over limit", `{"graph":"GRAPH"}` + strings.Repeat(" ", serve.MaxDetectBodyBytes), http.StatusRequestEntityTooLarge},
	{"unknown field", `{"graph":"GRAPH","optionz":{}}`, http.StatusBadRequest},
	{"malformed", `{"graph":`, http.StatusBadRequest},
	{"empty", ``, http.StatusBadRequest},
	{"unknown graph and bad options", `{"graph":"` + strings.Repeat("ab", 32) + `","options":{"damping":1.5}}`, http.StatusBadRequest},
	{"damping", `{"graph":"GRAPH","options":{"damping":1.5}}`, http.StatusBadRequest},
	{"workers", `{"graph":"GRAPH","options":{"workers":-1}}`, http.StatusBadRequest},
	{"max_sweeps", `{"graph":"GRAPH","options":{"max_sweeps":-3}}`, http.StatusBadRequest},
	{"cam_kb", `{"graph":"GRAPH","options":{"accum":"asa","cam_kb":65}}`, http.StatusBadRequest},
	{"sched", `{"graph":"GRAPH","options":{"sched":"static"}}`, http.StatusBadRequest},
	{"empty graph", `{"graph":""}`, http.StatusNotFound},
}

// parityRig is a single node and a 3-replica cluster with a router, all
// holding graphA.
type parityRig struct {
	tc      *testCluster
	hash    string
	targets []string // single node, owner, non-owner, router
	names   []string
}

func newParityRig(t testing.TB) *parityRig {
	single := serve.New(serve.DefaultConfig())
	ssrv := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		ssrv.Close()
		single.Close()
	})
	tc := newTestCluster(t, 3, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	if h := upload(t, ssrv.URL, graphA); h != hash {
		t.Fatalf("single node hash %s != cluster hash %s", h, hash)
	}
	owners := tc.router.owners(hash)
	nonOwner := -1
	for i := range tc.nodes {
		if !tc.nodes[i].isOwner(owners) {
			nonOwner = i
		}
	}
	if nonOwner < 0 {
		t.Fatalf("owners %v cover every replica", owners)
	}
	return &parityRig{
		tc:      tc,
		hash:    hash,
		targets: []string{ssrv.URL, tc.srvs[owners[0]].URL, tc.srvs[nonOwner].URL, tc.baseURL},
		names:   []string{"single node", "owner", "non-owner", "router"},
	}
}

// peerRequests sums the peer round trips every cluster node has attempted.
func (rig *parityRig) peerRequests() uint64 {
	var sum uint64
	for _, n := range append([]*Node{rig.tc.router}, rig.tc.nodes...) {
		for _, st := range n.Stats().PeerStats {
			sum += st.Requests
		}
	}
	return sum
}

// check posts body (with graphToken replaced by the graph's hash) to every
// target and fails unless all answer with the same status and bytes. It
// returns that status.
func (rig *parityRig) check(t testing.TB, body string) int {
	t.Helper()
	body = strings.ReplaceAll(body, graphToken, rig.hash)
	var wantStatus int
	var wantBody []byte
	for i, base := range rig.targets {
		resp, err := http.Post(base+"/v1/detect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantStatus, wantBody = resp.StatusCode, raw
			continue
		}
		if resp.StatusCode != wantStatus || !bytes.Equal(raw, wantBody) {
			t.Fatalf("%s answered %d %q, single node %d %q (body %.200q)",
				rig.names[i], resp.StatusCode, raw, wantStatus, wantBody, body)
		}
	}
	return wantStatus
}

// TestDetectParity: a detect body gets the same status and bytes from a
// single node, a cluster owner, a non-owner and a router, and a rejected
// body costs no peer call on any of them.
func TestDetectParity(t *testing.T) {
	rig := newParityRig(t)
	for _, tc := range parityBodies {
		before := rig.peerRequests()
		if got := rig.check(t, tc.body); got != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.status)
		}
		if tc.status != http.StatusOK {
			if after := rig.peerRequests(); after != before {
				t.Errorf("%s: rejected body cost %d peer requests, want 0", tc.name, after-before)
			}
		}
	}
	for _, n := range append([]*Node{rig.tc.router}, rig.tc.nodes...) {
		for peer, state := range n.Stats().Breakers {
			if state != BreakerClosed.String() {
				t.Errorf("node %d: breaker to peer %s is %s, want closed", n.cfg.Self, peer, state)
			}
		}
	}
}

// FuzzDetectRequest is the differential form of TestDetectParity: whatever
// the body, a single node and every kind of cluster node answer alike.
func FuzzDetectRequest(f *testing.F) {
	for _, tc := range parityBodies {
		f.Add(tc.body)
	}
	rig := newParityRig(f)
	f.Fuzz(func(t *testing.T, body string) {
		rig.check(t, body)
	})
}

// FuzzDeltaRequest posts arbitrary bytes as a delta onto the one small base
// graph a single serve.Server holds. No body may earn a 5xx or a panic;
// every accepted body must name a version the server reports with the base
// as its parent, and re-posting it must answer the same id as reused.
func FuzzDeltaRequest(f *testing.F) {
	const maxUpload = 4 << 10
	for _, seed := range []string{
		"+ 0 6 1\n", // add: an edge to a brand-new vertex
		"- 0 3\n",   // remove: the bridge between the triangles
		"+ 0 9\n",   // vertex 9 >= parent.N() + 2·len(Ops) = 8
		"+ 0 1 +Inf\n",
		strings.Repeat("+ 0 1\n", maxUpload/6+1), // over MaxUploadBytes
	} {
		f.Add(seed)
	}
	cfg := serve.DefaultConfig()
	cfg.MaxUploadBytes = maxUpload
	s := serve.New(cfg)
	f.Cleanup(s.Close)
	h := s.Handler()
	call := func(t testing.TB, method, path, body string) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	status, raw := call(f, http.MethodPost, "/v1/graphs", graphA)
	var base serve.GraphInfo
	if status != http.StatusCreated || json.Unmarshal(raw, &base) != nil {
		f.Fatalf("base upload: %d %s", status, raw)
	}
	deltaPath := "/v1/graphs/" + base.Hash + "/delta"
	f.Fuzz(func(t *testing.T, body string) {
		status, raw := call(t, http.MethodPost, deltaPath, body)
		if status >= 500 {
			t.Fatalf("delta %.200q: status %d %s", body, status, raw)
		}
		if status != http.StatusOK && status != http.StatusCreated {
			return
		}
		var posted serve.VersionInfo
		if err := json.Unmarshal(raw, &posted); err != nil {
			t.Fatalf("delta %.200q: undecodable %d answer %s: %v", body, status, raw, err)
		}
		status, raw = call(t, http.MethodGet, "/v1/versions/"+posted.ID, "")
		var stored serve.VersionInfo
		if status != http.StatusOK || json.Unmarshal(raw, &stored) != nil {
			t.Fatalf("version %s of delta %.200q: GET answered %d %s", posted.ID, body, status, raw)
		}
		if stored.ID != posted.ID || stored.Parent != base.Hash {
			t.Fatalf("version %s reports id %s parent %s, want parent %s", posted.ID, stored.ID, stored.Parent, base.Hash)
		}
		status, raw = call(t, http.MethodPost, deltaPath, body)
		var again serve.VersionInfo
		if status != http.StatusOK || json.Unmarshal(raw, &again) != nil || again.ID != posted.ID || !again.Reused {
			t.Fatalf("re-posted delta %.200q answered %d %s, want 200 reused %s", body, status, raw, posted.ID)
		}
	})
}
