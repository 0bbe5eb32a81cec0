package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a typed HTTP client for an asamapd server. The zero value is not
// usable; construct with NewClient. Every call is a single HTTP exchange: a
// 429 surfaces as ServerBusyError with the server's Retry-After estimate,
// and the caller decides whether to try again.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at baseURL (e.g.
// "http://localhost:8715"). hc may be nil to use http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// ServerBusyError reports a 429 rejection with the server's Retry-After
// estimate. RequestID carries the server's X-Request-Id so the rejection can
// be correlated with the server-side log line.
type ServerBusyError struct {
	RetryAfter time.Duration
	RequestID  string
}

func (e *ServerBusyError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("serve: server busy, retry after %s (request %s)", e.RetryAfter, e.RequestID)
	}
	return fmt.Sprintf("serve: server busy, retry after %s", e.RetryAfter)
}

// APIError is any non-2xx response that is not a 429. RequestID carries the
// server's X-Request-Id so a client-side error report names the exact
// server-side log lines (and trace spans) that produced it.
type APIError struct {
	Status    int
	Message   string
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("serve: HTTP %d: %s (request %s)", e.Status, e.Message, e.RequestID)
	}
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Message)
}

// UploadGraph streams an edge list to the server and returns its content
// address. Identical uploads are deduplicated server-side.
func (c *Client) UploadGraph(ctx context.Context, edgeList io.Reader, directed bool) (GraphInfo, error) {
	url := c.base + "/v1/graphs"
	if directed {
		url += "?directed=true"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, edgeList)
	if err != nil {
		return GraphInfo{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	var info GraphInfo
	if err := c.do(req, &info); err != nil {
		return GraphInfo{}, err
	}
	return info, nil
}

// UploadDelta streams a delta-edge batch onto a registered graph or version
// and returns the resulting version's lineage metadata. Identical deltas on
// the same parent deduplicate server-side (the version id is a pure function
// of parent digest + ordered ops).
func (c *Client) UploadDelta(ctx context.Context, parent string, delta io.Reader) (VersionInfo, error) {
	url := c.base + "/v1/graphs/" + parent + "/delta"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, delta)
	if err != nil {
		return VersionInfo{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	var info VersionInfo
	if err := c.do(req, &info); err != nil {
		return VersionInfo{}, err
	}
	return info, nil
}

// Version fetches the lineage metadata of a version by id.
func (c *Client) Version(ctx context.Context, id string) (VersionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/versions/"+id, nil)
	if err != nil {
		return VersionInfo{}, err
	}
	var info VersionInfo
	if err := c.do(req, &info); err != nil {
		return VersionInfo{}, err
	}
	return info, nil
}

// VersionDelta fetches the exact delta bytes that produced a version, plus
// the parent id they apply to (from the X-Asamap-Parent header). Applying
// the bytes to the same parent on another replica derives the same version.
func (c *Client) VersionDelta(ctx context.Context, id string) (delta []byte, parent string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/versions/"+id+"/delta", nil)
	if err != nil {
		return nil, "", err
	}
	resp, raw, err := c.send(req)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", responseError(resp, raw)
	}
	return raw, resp.Header.Get("X-Asamap-Parent"), nil
}

// GraphInfo fetches the registered shape of a graph by hash.
func (c *Client) GraphInfo(ctx context.Context, hash string) (GraphInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/graphs/"+hash, nil)
	if err != nil {
		return GraphInfo{}, err
	}
	var info GraphInfo
	if err := c.do(req, &info); err != nil {
		return GraphInfo{}, err
	}
	return info, nil
}

// DetectResult pairs the response body with its cache disposition.
type DetectResult struct {
	DetectResponse
	// Cache reports how the server obtained the result: miss (computed),
	// hit (cached), or coalesced (shared an in-flight identical request).
	Cache CacheOutcome
	// Raw is the exact response body; byte-identical across identical
	// requests — the server's determinism guarantee.
	Raw []byte
}

// Detect runs (or fetches) community detection for a registered graph.
func (c *Client) Detect(ctx context.Context, graphHash string, opts DetectOptions) (*DetectResult, error) {
	body, err := json.Marshal(DetectRequest{Graph: graphHash, Options: opts})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, raw, err := c.send(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp, raw)
	}
	out := &DetectResult{
		Cache: CacheOutcome(resp.Header.Get("X-Asamap-Cache")),
		Raw:   raw,
	}
	if err := json.Unmarshal(raw, &out.DetectResponse); err != nil {
		return nil, fmt.Errorf("serve: decoding detect response: %w", err)
	}
	return out, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// do executes req and decodes a 2xx JSON body into out.
func (c *Client) do(req *http.Request, out any) error {
	resp, raw, err := c.send(req)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return responseError(resp, raw)
	}
	return json.Unmarshal(raw, out)
}

// send executes req once and returns the response with its fully read body.
// Retries, backoff and trace propagation on outbound peer calls belong to
// cluster.PeerClient; this client makes exactly one exchange per call.
func (c *Client) send(req *http.Request) (*http.Response, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, raw, nil
}

// responseError converts a non-2xx response into the matching typed error,
// carrying the server's X-Request-Id for cross-node log correlation.
func responseError(resp *http.Response, raw []byte) error {
	reqID := resp.Header.Get("X-Request-Id")
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			retry = time.Duration(v) * time.Second
		}
		return &ServerBusyError{RetryAfter: retry, RequestID: reqID}
	}
	var payload struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &payload) == nil && payload.Error != "" {
		msg = payload.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg, RequestID: reqID}
}
