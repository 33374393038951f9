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
	"os"
	"path/filepath"
	"time"

	"srvsim/internal/gateway"
	"srvsim/internal/harness"
	"srvsim/internal/obsv"
	"srvsim/internal/serve"
)

// fleet is an in-process srvgw in front of two srvd nodes, each on its own
// loopback listener with default configuration and the durable journal on.
type fleet struct {
	nodes    []*serve.Server
	nodeURLs []string
	gw       *gateway.Gateway
	gwURL    string
	https    []*http.Server
	dir      string
}

// fleetNodes is the number of srvd nodes behind the gateway.
const fleetNodes = 2

// startFleet boots the fleet with journals under a fresh directory inside
// parent. spanCap sizes every span buffer (0 keeps the defaults).
func startFleet(parent string, spanCap int) (*fleet, error) {
	dir, err := os.MkdirTemp(parent, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("fleet dir: %w", err)
	}
	f := &fleet{dir: dir}
	for i := 0; i < fleetNodes; i++ {
		s, err := serve.New(serve.Config{
			NodeID:     fmt.Sprintf("node-%d", i),
			JournalDir: filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			SpanCap:    spanCap,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		url, err := f.listen(s.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		s.Start()
		f.nodes = append(f.nodes, s)
		f.nodeURLs = append(f.nodeURLs, url)
	}
	gw, err := gateway.New(gateway.Config{Nodes: f.nodeURLs, SpanCap: spanCap})
	if err != nil {
		f.stop()
		return nil, err
	}
	url, err := f.listen(gw.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	gw.Start()
	f.gw, f.gwURL = gw, url
	return f, nil
}

// listen serves h on an ephemeral loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.https = append(f.https, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every component down, waits for them, and removes the journals.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.gw != nil {
		_ = f.gw.Shutdown(ctx)
	}
	for _, h := range f.https {
		_ = h.Shutdown(ctx)
	}
	for _, s := range f.nodes {
		_ = s.Shutdown(ctx)
	}
	_ = os.RemoveAll(f.dir)
}

// queueDepth sums the nodes' /v1/healthz queue depths and job workers.
func (f *fleet) queueDepth(c *client) (depth, workers int64, err error) {
	for _, u := range f.nodeURLs {
		var h serve.Health
		if err := c.do(context.Background(), http.MethodGet, u+"/v1/healthz", nil, &h); err != nil {
			return 0, 0, err
		}
		depth += h.QueueDepth
		workers += int64(h.Workers)
	}
	return depth, workers, nil
}

// spanRecorders lists every span buffer in the fleet, gateway first.
func (f *fleet) spanRecorders() []*obsv.SpanRecorder {
	recs := []*obsv.SpanRecorder{f.gw.Spans()}
	for _, s := range f.nodes {
		recs = append(recs, s.Spans())
	}
	return recs
}

// nodeCounter sums an integer metric over the nodes' registries.
func (f *fleet) nodeCounter(name string) int64 {
	var n int64
	for _, s := range f.nodes {
		if m := s.Registry().Lookup(name); m != nil {
			n += m.Int()
		}
	}
	return n
}

// gwCounter reads an integer metric from the gateway's registry.
func (f *fleet) gwCounter(name string) int64 {
	if m := f.gw.Registry().Lookup(name); m != nil {
		return m.Int()
	}
	return 0
}

// client is the load generator's HTTP client: plain net/http with no retries
// (a refusal must count, not be papered over) and at most conns connections
// per host.
type client struct {
	http *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &client{http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// apiError is a non-2xx answer, carrying the typed envelope's code.
type apiError struct {
	status int
	code   serve.ErrorCode
	msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("HTTP %d %s: %s", e.status, e.code, e.msg)
}

// errCode names the refusal or failure class of err for the accounting:
// the envelope code of an API error, "transport" otherwise.
func errCode(err error) string {
	var ae *apiError
	if errors.As(err, &ae) {
		if ae.code == "" {
			return fmt.Sprintf("http_%d", ae.status)
		}
		return string(ae.code)
	}
	return "transport"
}

// refusal reports whether err is an admission refusal (429/503) rather than
// a failure.
func refusal(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && (ae.status == http.StatusTooManyRequests || ae.status == http.StatusServiceUnavailable)
}

// do sends one request and decodes a 2xx answer into out; any other status
// comes back as an *apiError.
func (c *client) do(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error serve.APIError `json:"error"`
		}
		_ = json.Unmarshal(data, &env) // a body without the envelope leaves the code empty
		return &apiError{status: resp.StatusCode, code: env.Error.Code, msg: env.Error.Message}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// submit posts a request body to base; wait selects the synchronous ?wait=1
// form.
func (c *client) submit(ctx context.Context, base string, body []byte, wait bool) (serve.JobStatus, error) {
	url := base + "/v1/sims"
	if wait {
		url += "?wait=1"
	}
	var st serve.JobStatus
	err := c.do(ctx, http.MethodPost, url, body, &st)
	return st, err
}

// status polls one job.
func (c *client) status(ctx context.Context, base, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, base+"/v1/sims/"+id, nil, &st)
	return st, err
}

// loopRequest is the ModeLoop request for one suite loop at one seed.
func loopRequest(bench string, loop int, seed int64) harness.Request {
	return harness.Request{Mode: harness.ModeLoop, Bench: bench, LoopIndex: loop, Seed: seed}
}

// encodeRequest is the wire body of req.
func encodeRequest(req harness.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request always encodes
	}
	return b
}
