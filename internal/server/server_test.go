package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// newTestServer starts a virtual-clock daemon on a radix-4 (16-node) tree
// with the Jigsaw allocator unless overridden.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Alloc == nil {
		cfg.Alloc = core.NewAllocator(topology.MustNew(4))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJob(t *testing.T, base string, body string) (*http.Response, jobJSON) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp, j
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil && v != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

type clusterJSON struct {
	Policy      string           `json:"policy"`
	Clock       string           `json:"clock"`
	Radix       int              `json:"radix"`
	Nodes       int              `json:"nodes"`
	UsedNodes   int              `json:"used_nodes"`
	FreeNodes   int              `json:"free_nodes"`
	QueueDepth  int              `json:"queue_depth"`
	RunningJobs int              `json:"running_jobs"`
	Counts      map[string]int64 `json:"counts"`
}

// waitDrained polls /v1/cluster until the machine is empty.
func waitDrained(t *testing.T, base string) clusterJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var c clusterJSON
		if code := getJSON(t, base+"/v1/cluster", &c); code != http.StatusOK {
			t.Fatalf("cluster status %d", code)
		}
		if c.QueueDepth == 0 && c.RunningJobs == 0 &&
			c.Counts["submitted"] == c.Counts["completed"]+c.Counts["rejected"]+c.Counts["cancelled"] {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: %+v", c)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitQueryLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	resp, j := postJob(t, hs.URL, `{"size":8,"runtime":100}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if j.ID != 1 || (j.State != "running" && j.State != "completed") {
		t.Fatalf("job = %+v, want id 1 scheduled immediately", j)
	}

	var got jobJSON
	if code := getJSON(t, hs.URL+"/v1/jobs/1", &got); code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	if got.ID != 1 || got.Size != 8 {
		t.Fatalf("got %+v", got)
	}

	c := waitDrained(t, hs.URL)
	if c.Counts["completed"] != 1 || c.FreeNodes != 16 {
		t.Fatalf("cluster after drain: %+v", c)
	}
	if c.Policy != "Jigsaw" || c.Clock != "virtual" || c.Radix != 4 || c.Nodes != 16 {
		t.Fatalf("cluster metadata: %+v", c)
	}
}

func TestPartitionIsolationVisibleOverHTTP(t *testing.T) {
	// Two 8-node jobs on a 16-node tree: with the Jigsaw allocator both
	// get isolated partitions and run concurrently.
	_, hs := newTestServer(t, Config{VirtualClock: true})
	_, j1 := postJob(t, hs.URL, `{"size":8,"runtime":50,"arrival":0}`)
	_, j2 := postJob(t, hs.URL, `{"size":8,"runtime":50,"arrival":0}`)
	if j1.State == "queued" || j2.State == "queued" {
		t.Fatalf("both jobs should start immediately: %+v %+v", j1, j2)
	}
	waitDrained(t, hs.URL)
}

func TestValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	for body, want := range map[string]int{
		`{"size":0,"runtime":10}`:         http.StatusBadRequest,
		`{"size":4,"runtime":0}`:          http.StatusBadRequest,
		`{"size":4,"runtime":-5}`:         http.StatusBadRequest,
		`{"size":17,"runtime":10}`:        http.StatusBadRequest, // larger than the 16-node tree
		`{"size":4,"runtime":10,"x"`:      http.StatusBadRequest, // truncated JSON
		`{"size":4,"bogus":1}`:            http.StatusBadRequest, // unknown field
		`{"id":-3,"size":4,"runtime":10}`: http.StatusBadRequest,
	} {
		resp, _ := postJob(t, hs.URL, body)
		if resp.StatusCode != want {
			t.Errorf("body %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// Duplicate explicit ID conflicts.
	resp, _ := postJob(t, hs.URL, `{"id":77,"size":2,"runtime":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ = postJob(t, hs.URL, `{"id":77,"size":2,"runtime":5}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit: %d, want 409", resp.StatusCode)
	}
}

func TestUnknownJobRoutes(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	if code := getJSON(t, hs.URL+"/v1/jobs/999", &struct{}{}); code != http.StatusNotFound {
		t.Fatalf("get unknown: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: %d", resp.StatusCode)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	// Baseline allocator, FIFO queue: fill the machine, queue one, cancel
	// it. A frozen wall clock keeps the first job running indefinitely (a
	// virtual clock would fast-forward it to completion between requests).
	_, hs := newTestServer(t, Config{
		Alloc:   baseline.NewAllocator(topology.MustNew(4)),
		nowFunc: func() float64 { return 0 },
	})
	_, j1 := postJob(t, hs.URL, `{"size":16,"runtime":1000}`)
	_, j2 := postJob(t, hs.URL, `{"size":16,"runtime":1000}`)
	if j2.State != "queued" {
		t.Fatalf("second job state %q, want queued", j2.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", hs.URL, j2.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled jobJSON
	json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cancelled.State != "cancelled" {
		t.Fatalf("cancel: %d %+v", resp.StatusCode, cancelled)
	}
	// Cancel the running one too; the cluster must drain to empty.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", hs.URL, j1.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %d", resp.StatusCode)
	}
	c := waitDrained(t, hs.URL)
	if c.Counts["cancelled"] != 2 || c.FreeNodes != 16 {
		t.Fatalf("after cancels: %+v", c)
	}
}

func TestQueueEndpointFIFOOrder(t *testing.T) {
	// Frozen wall clock: the machine-filling head stays running, so the
	// two followers stay queued and observable.
	_, hs := newTestServer(t, Config{
		Alloc:   baseline.NewAllocator(topology.MustNew(4)),
		nowFunc: func() float64 { return 0 },
	})
	postJob(t, hs.URL, `{"size":16,"runtime":1000}`)
	postJob(t, hs.URL, `{"size":16,"runtime":1000}`)
	postJob(t, hs.URL, `{"size":16,"runtime":1000}`)
	var q struct {
		Depth int       `json:"depth"`
		Jobs  []jobJSON `json:"jobs"`
	}
	if code := getJSON(t, hs.URL+"/v1/queue", &q); code != http.StatusOK {
		t.Fatalf("queue status %d", code)
	}
	if q.Depth != 2 || len(q.Jobs) != 2 || q.Jobs[0].ID != 2 || q.Jobs[1].ID != 3 {
		t.Fatalf("queue = %+v", q)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	postJob(t, hs.URL, `{"size":8,"runtime":100}`)
	waitDrained(t, hs.URL)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"jigsawd_jobs_submitted_total 1",
		"jigsawd_jobs_completed_total 1",
		"jigsawd_queue_depth 0",
		"jigsawd_nodes_total 16",
		"jigsawd_utilization_steady",
		"jigsawd_schedule_latency_seconds_bucket{le=\"+Inf\"} 1",
		"jigsawd_schedule_latency_seconds_count 1",
		"jigsawd_schedule_latency_seconds_p95",
		"jigsawd_request_queue_wait_seconds_bucket{le=\"+Inf\"} 1",
		"jigsawd_request_queue_wait_seconds_count 1",
		`jigsawd_http_requests_total{route="POST /v1/jobs",code="202"}`,
		"# TYPE jigsawd_jobs_submitted_total counter",
		"# TYPE jigsawd_utilization_instant gauge",
		"# TYPE jigsawd_schedule_latency_seconds histogram",
		"# TYPE jigsawd_request_queue_wait_seconds histogram",
		// The latency HELP must promise engine time only: the measurement is
		// taken on the engine goroutine, not around the request channel.
		"queue wait excluded",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.HasSuffix(body, "\n") {
		t.Error("exposition must end with a newline")
	}
}

func TestWallClockCompletesInRealTime(t *testing.T) {
	_, hs := newTestServer(t, Config{}) // wall clock
	_, j := postJob(t, hs.URL, `{"size":4,"runtime":0.05}`)
	if j.State != "running" {
		t.Fatalf("state %q, want running", j.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got jobJSON
		getJSON(t, hs.URL+"/v1/jobs/1", &got)
		if got.State == "completed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthzAndPprof(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{
		Alloc:        core.NewAllocator(topology.MustNew(4)),
		VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	resp, j := postJob(t, base, `{"size":8,"runtime":10}`)
	if resp.StatusCode != http.StatusAccepted || j.ID != 1 {
		t.Fatalf("submit before shutdown: %d %+v", resp.StatusCode, j)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	// The engine goroutine is stopped: direct requests fail with ErrClosed.
	if err := s.lanes[0].do(func(e *engine.Engine) {}); err != ErrClosed {
		t.Fatalf("post-close do = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	s.Close()
}

// TestServeDropsStalledHeaderKeepsIdleKeepAlive pins the listener's timeouts:
// a client that sends half a request header is disconnected once the header
// deadline passes, while a keep-alive client that stays silent between two
// requests for longer than that deadline keeps its connection.
func TestServeDropsStalledHeaderKeepsIdleKeepAlive(t *testing.T) {
	if readHeaderTimeout <= 0 || idleTimeout <= readHeaderTimeout {
		t.Fatalf("Serve's timeouts: header %v, idle %v", readHeaderTimeout, idleTimeout)
	}
	const headerDeadline = 150 * time.Millisecond
	s, err := New(Config{Alloc: core.NewAllocator(topology.MustNew(4)), VirtualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln, headerDeadline, time.Minute) }()
	defer func() {
		cancel()
		<-served
	}()
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second)) // fail the test, not hang it
		return c
	}

	stalled := dial()
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: jigsawd\r\n"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled-header connection was not closed by the server: %v", err)
	}
	if waited := time.Since(t0); waited < headerDeadline/2 {
		t.Fatalf("stalled-header connection closed after %v, before the %v deadline", waited, headerDeadline)
	}

	keepAlive := dial()
	defer keepAlive.Close()
	br := bufio.NewReader(keepAlive)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(3 * headerDeadline) // idle between requests is not a stalled header
		}
		if _, err := io.WriteString(keepAlive, "GET /healthz HTTP/1.1\r\nHost: jigsawd\r\n\r\n"); err != nil {
			t.Fatalf("request %d on the keep-alive connection: %v", i, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("response %d on the keep-alive connection: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("response %d: status %d", i, resp.StatusCode)
		}
	}
}

// nopWriter is a ResponseWriter that allocates nothing.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header       { return w.h }
func (nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nopWriter) WriteHeader(int)             {}

// TestInstrumentAllocatesOnlyItsStatusWriter: with a nil Logger, and with
// jigsawd's default Warn level, the bookkeeping around a handler allocates
// one thing per request, its statusWriter.
func TestInstrumentAllocatesOnlyItsStatusWriter(t *testing.T) {
	for name, logger := range map[string]*slog.Logger{
		"nil":  nil,
		"warn": slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})),
	} {
		s, _ := newTestServer(t, Config{Logger: logger})
		h := s.instrument("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusAccepted) })
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
		w := nopWriter{h: http.Header{}}
		if n := testing.AllocsPerRun(100, func() { h(w, r) }); n != 1 {
			t.Errorf("%s logger: %v allocations per request, want 1", name, n)
		}
	}
}
