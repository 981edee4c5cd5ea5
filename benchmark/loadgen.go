package main

// The load generator: a target (a daemon over HTTP, or an in-process handler
// for the quick smoke and the traced layer replay), closed- and open-loop
// drivers over a pre-generated op stream, and the per-op answer checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the number of worker goroutines (one keep-alive connection
// each) in every phase: the reference host has 2 cores, shared with the
// daemon.
const connections = 2

// target answers one request.
type target interface {
	do(method, path string, body []byte, buf *bytes.Buffer) (status int, err error)
}

// httpTarget talks to a daemon process over loopback.
type httpTarget struct {
	client *http.Client
	base   string
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: connections},
			Timeout:   30 * time.Second,
		},
		base: base,
	}
}

func (t *httpTarget) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// handlerTarget calls a handler in-process.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	rec.Body = buf
	buf.Reset()
	t.h.ServeHTTP(rec, req)
	return rec.Code, nil
}

// getJSON fetches path and decodes the answer into v.
func getJSON(t target, path string, v any) error {
	var buf bytes.Buffer
	status, err := t.do("GET", path, nil, &buf)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// The response fields the checks read, per endpoint.
type batchAnswer struct {
	Accepted *int `json:"accepted"`
	Failed   *int `json:"failed"`
}

type jobAnswer struct {
	ID    int64  `json:"id"`
	State string `json:"state"`
}

type queueAnswer struct {
	Depth       *int        `json:"depth"`
	Jobs        []jobAnswer `json:"jobs"`
	PublishedAt time.Time   `json:"published_at"`
}

type clusterAnswer struct {
	Nodes       int       `json:"nodes"`
	UsedNodes   int       `json:"used_nodes"`
	QueueDepth  int       `json:"queue_depth"`
	RunningJobs int       `json:"running_jobs"`
	PublishedAt time.Time `json:"published_at"`
	Counts      struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
	} `json:"counts"`
	Utilization struct {
		Instant float64 `json:"instant"`
		ToNow   float64 `json:"to_now"`
	} `json:"utilization"`
}

type shardsAnswer struct {
	Count int `json:"count"`
	Cross struct {
		Waiting    int   `json:"waiting"`
		Placed     int64 `json:"placed"`
		Attempts   int64 `json:"attempts"`
		Infeasible int64 `json:"infeasible"`
		Conflicts  int64 `json:"conflicts"`
		Parks      int64 `json:"parks"`
	} `json:"cross"`
}

// verdict is what check read from one answer: whether it is correct and, for
// snapshot-served reads, when the snapshot was published and (cluster reads)
// the share of nodes in use.
type verdict struct {
	ok        bool
	published time.Time
	used      float64
}

// check decides whether the answer to o is correct.
func check(o *op, status int, body []byte) (v verdict) {
	want := http.StatusOK
	if !o.kind.isRead() && o.kind != opCancel {
		want = http.StatusAccepted
	}
	if status != want {
		return v
	}
	ok := false
	switch o.kind {
	case opBatch:
		var a batchAnswer
		ok = json.Unmarshal(body, &a) == nil &&
			a.Accepted != nil && *a.Accepted == o.jobs && a.Failed != nil && *a.Failed == 0
	case opSubmit, opSubmitWide, opGetJob, opCancel:
		var a jobAnswer
		if json.Unmarshal(body, &a) != nil {
			return v
		}
		active := a.State == "queued" || a.State == "running"
		switch {
		case o.kind == opCancel || o.expect == expectCancelled:
			ok = a.State == "cancelled"
		case o.expect == expectActive:
			ok = active
		default:
			ok = active || a.State == "cancelled"
		}
		ok = ok && a.ID > 0 && (o.id == 0 || a.ID == o.id)
	case opGetQueue:
		var a queueAnswer
		ok = json.Unmarshal(body, &a) == nil && a.Depth != nil && *a.Depth == len(a.Jobs) &&
			!a.PublishedAt.IsZero()
		v.published = a.PublishedAt
	case opGetCluster:
		var a clusterAnswer
		ok = json.Unmarshal(body, &a) == nil && a.Nodes > 0 && a.UsedNodes >= 0 && a.UsedNodes <= a.Nodes &&
			!a.PublishedAt.IsZero()
		v.published = a.PublishedAt
		v.used = ratio(float64(a.UsedNodes), float64(a.Nodes))
	case opGetShards:
		var a shardsAnswer
		ok = json.Unmarshal(body, &a) == nil && a.Count > 0
	}
	v.ok = ok
	return v
}

// sample is the measured outcome of one op.
type sample struct {
	start, end time.Time // start is the send time, or the due time in open loop
	lag        time.Duration
	ageMs      float64 // receive time minus the snapshot's published_at
	used       float64 // cluster reads: used_nodes / nodes
	ok         bool
	status     int
	bytes      int
}

// maxAhead bounds how far one connection may run ahead of the other. An op
// that names a job id comes at least busyGap ops after the submit of that id;
// holding the connections within half of that keeps the promise that the
// submit has been answered, even when one request stalls for a long time.
const maxAhead = busyGap / 2

// cpuReading is the measured process's CPU time at one instant.
type cpuReading struct {
	at  time.Time
	cpu float64
}

// marks cut a phase into chunks of `every` ops: at[k] is read when op
// k*every-1 has been answered, at[0] before the first op goes out.
type marks struct {
	every  int
	pid    int
	at     []cpuReading
	failed atomic.Pointer[error]
}

// maxChunks and minChunkOps size the chunks: a repeat has maxChunks of them
// (half a second each at the driver's run length) unless that would leave a
// chunk too few ops for the median of its writes or reads.
const (
	maxChunks   = 8
	minChunkOps = 512
)

// newMarks cuts a phase of n ops measured against process pid.
func newMarks(n, pid int) *marks {
	k := min(max(n/minChunkOps, 1), maxChunks)
	return &marks{every: n / k, pid: pid, at: make([]cpuReading, k+1)}
}

func (m *marks) read(k int) {
	cpu, err := procCPUSeconds(m.pid)
	if err != nil {
		m.failed.Store(&err)
	}
	m.at[k] = cpuReading{time.Now(), cpu}
}

// drive executes ops from `connections` goroutines, each taking the
// next unclaimed op. rate == 0 is a closed loop: the next op goes out when
// the previous answer arrives. rate > 0 is an open loop: op i is due at
// t0 + i/rate, is sent no earlier, and is timed from its due time, so a stall
// charges every op it delays; lag records how late the generator sent it.
// With marks the phase is cut into chunks as it runs.
func drive(t target, ops []op, out []sample, rate float64, m *marks) time.Duration {
	if m != nil {
		m.read(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var at [connections]atomic.Int64 // the op each connection is on
	t0 := time.Now()
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer at[w].Store(math.MaxInt64)
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				at[w].Store(int64(i))
				for v := range at {
					for at[v].Load() < int64(i-maxAhead) {
						time.Sleep(50 * time.Microsecond)
					}
				}
				o, s := &ops[i], &out[i]
				s.start = time.Now()
				if rate > 0 {
					due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if d := due.Sub(s.start); d > 0 {
						time.Sleep(d)
					}
					s.lag = time.Since(due)
					s.start = due
				}
				status, err := t.do(o.method, o.path, o.body, &buf)
				s.end = time.Now()
				s.status, s.bytes = status, buf.Len()
				if m != nil && (i+1)%m.every == 0 && (i+1)/m.every < len(m.at) {
					m.read((i + 1) / m.every)
				}
				if err != nil {
					continue
				}
				v := check(o, status, buf.Bytes())
				s.ok, s.used = v.ok, v.used
				if !v.published.IsZero() {
					s.ageMs = float64(s.end.Sub(v.published)) / 1e6
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}
