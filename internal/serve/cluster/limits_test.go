package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/serve"
)

// TestClusterUploadLimits: a cluster node enforces its local server's
// MaxUploadBytes and answers oversize graph and delta uploads with exactly a
// single node's status and body, while a body at the limit is accepted.
func TestClusterUploadLimits(t *testing.T) {
	const limit = 64
	cfg := serve.DefaultConfig()
	cfg.MaxUploadBytes = limit
	// pad fills body with a comment line up to exactly limit bytes.
	pad := func(body string) string { return body + "#" + strings.Repeat(".", limit-len(body)-2) + "\n" }

	single := serve.New(cfg)
	ssrv := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		ssrv.Close()
		single.Close()
	})

	const replicas = 3
	urls := make([]string, replicas)
	swaps := make([]*handlerSwap, replicas)
	for i := range urls {
		swaps[i] = &handlerSwap{}
		srv := httptest.NewServer(swaps[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	for i := range urls {
		n := NewNode(serve.New(cfg), Config{Self: i, Peers: urls, Replication: 2, Seed: 42})
		t.Cleanup(n.Close)
		swaps[i].h.Store(n.Handler())
	}

	post := func(base, path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	same := func(what, path, body string, wantStatus int) {
		t.Helper()
		if len(body) > limit+1 || len(body) < limit {
			t.Fatalf("%s: body is %d bytes, want the limit or one past it", what, len(body))
		}
		sStatus, sBody := post(ssrv.URL, path, body)
		cStatus, cBody := post(urls[0], path, body)
		if sStatus != wantStatus || cStatus != sStatus || !bytes.Equal(cBody, sBody) {
			t.Fatalf("%s: single node %d %s, cluster node %d %s, want both %d",
				what, sStatus, sBody, cStatus, cBody, wantStatus)
		}
	}

	graph := pad(graphA)
	same("graph at limit", "/v1/graphs", graph, http.StatusCreated)
	same("graph over limit", "/v1/graphs", graph+"\n", http.StatusRequestEntityTooLarge)

	hash := upload(t, urls[0], graphA) // graphA and its padded copy share one canonical hash
	delta := pad(deltaOne)
	same("delta at limit", "/v1/graphs/"+hash+"/delta", delta, http.StatusCreated)
	same("delta over limit", "/v1/graphs/"+hash+"/delta", delta+"\n", http.StatusRequestEntityTooLarge)
}
