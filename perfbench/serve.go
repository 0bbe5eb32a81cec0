package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/obs/propagate"
	"github.com/asamap/asamap/internal/serve"
)

// server is an in-process asamapd (default configuration, logs discarded)
// on a loopback listener, driven over HTTP like any client would.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.DefaultConfig())
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop and open connections to
// end, and drains the detection queue.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) // an error leaves only idle sockets, closed below
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration // request written to last body byte read
}

func (s *server) call(ctx context.Context, method, path string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b, latency: lat}, nil
}

// callJSON calls and decodes a JSON reply, failing on any status but want.
func (s *server) callJSON(ctx context.Context, method, path string, body []byte, want int, v any) (reply, error) {
	r, err := s.call(ctx, method, path, body)
	if err != nil {
		return r, err
	}
	if r.status != want {
		return r, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, r.status, want, bytes.TrimSpace(r.body))
	}
	if v != nil {
		if err := json.Unmarshal(r.body, v); err != nil {
			return r, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return r, nil
}

func (s *server) upload(ctx context.Context, data []byte, directed bool) (serve.GraphInfo, error) {
	var info serve.GraphInfo
	_, err := s.callJSON(ctx, http.MethodPost, fmt.Sprintf("/v1/graphs?directed=%t", directed), data, http.StatusCreated, &info)
	return info, err
}

// detect posts one detect request and checks the reply came from a fresh
// run, not the result cache.
func (s *server) detect(ctx context.Context, graphID string, opt serve.DetectOptions) (serve.DetectResponse, reply, error) {
	body, err := json.Marshal(serve.DetectRequest{Graph: graphID, Options: opt})
	if err != nil {
		return serve.DetectResponse{}, reply{}, err
	}
	var resp serve.DetectResponse
	r, err := s.callJSON(ctx, http.MethodPost, "/v1/detect", body, http.StatusOK, &resp)
	if err != nil {
		return resp, r, err
	}
	if c := r.header.Get("X-Asamap-Cache"); c != string(serve.CacheMiss) {
		return resp, r, fmt.Errorf("detect on %s answered from cache (%q); every op must run", graphID, c)
	}
	return resp, r, nil
}

func (s *server) snapshot(ctx context.Context) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	_, err := s.callJSON(ctx, http.MethodGet, "/metrics/snapshot", nil, http.StatusOK, &snap)
	return snap, err
}

// spans fetches the server-side spans of the request that produced r.
func (s *server) spans(ctx context.Context, r reply) ([]obs.SpanData, error) {
	id := r.header.Get(propagate.ResponseHeader)
	if id == "" {
		return nil, errors.New("reply carries no trace id")
	}
	var payload struct {
		Spans []serve.SpanPayload `json:"spans"`
	}
	if _, err := s.callJSON(ctx, http.MethodGet, "/debug/trace/"+id, nil, http.StatusOK, &payload); err != nil {
		return nil, err
	}
	out := make([]obs.SpanData, 0, len(payload.Spans))
	for _, p := range payload.Spans {
		d, err := p.SpanData(time.Time{})
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// snapDelta is the change of the server's metrics between two snapshots.
type snapDelta struct{ a, b serve.MetricsSnapshot }

func (d snapDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// histSum is the exact total of the observations between the snapshots,
// from the histogram's integer nanosecond sum, never its bucket edges.
func (d snapDelta) histSum(name string) time.Duration {
	return time.Duration(d.b.Histograms[name].SumNS - d.a.Histograms[name].SumNS)
}

// serveLayers samples the serve layers of one traced op: the client-side
// latency, the server's request spans, the run spans under them, and the
// queue wait from the snapshot delta taken around the op.
func serveLayers(rec *recorder, lat time.Duration, spans []obs.SpanData, d snapDelta) layerTimes {
	lt := analyze(spans, 1)
	request, run := lt.byName["request"], lt.byName["run"]
	queue := d.histSum("queue_wait_seconds")
	rec.add("serve.request_ms", ms(request))
	rec.add("serve.transport_ms", ms(lat-request))
	// One op waits in the queue once per run it starts, so the mean over
	// traced ops is the snapshot's exact sum over its count.
	rec.count("serve.queue_wait_ms", ms(queue))
	rec.add("serve.overhead_ms", ms(request-run-queue))
	lt.recordKernels(rec)
	// Transport, queue wait, server overhead and the four kernels are the
	// named layers; what they leave of the latency is Infomap's own glue
	// between kernels.
	rec.add("unaccounted_ms", ms(run)-lt.kernelsMs())
	return lt
}

// recordServeCounts adds the prefix's server-side counts.
func recordServeCounts(rec *recorder, d snapDelta, detects int) {
	rec.set("serve.runs_per_request", d.counter("runs_total")/float64(detects))
	if n := d.counter("cache_hits_total") + d.counter("cache_misses_total"); n > 0 {
		rec.set("serve.cache_hit_ratio", d.counter("cache_hits_total")/n)
	}
	rec.set("serve.trace_dropped", d.counter("trace_dropped_total"))
}
