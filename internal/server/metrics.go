// Observability for the daemon: a dependency-free Prometheus text-format
// (version 0.0.4) exposition of engine counters, cluster gauges, HTTP
// request counts, and a scheduling-latency histogram. The registry is the
// only server state touched by handler goroutines directly (the engine is
// single-writer), so it carries its own locks.
package server

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
)

// latencyBuckets are the cumulative histogram bounds (seconds) for
// per-request scheduling latency: 1µs to 10s, one bucket per decade plus
// midpoints, matching the ms-scale Allocate costs Table 3 reports.
var latencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1, 10,
}

// latencyReservoirCap bounds the sample reservoir backing the quantile
// gauges; the newest samples overwrite the oldest.
const latencyReservoirCap = 4096

// latencyHist is a concurrency-safe histogram plus sample reservoir.
type latencyHist struct {
	mu      sync.Mutex
	counts  []int64
	sum     float64
	n       int64
	samples []float64
	next    int
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]int64, len(latencyBuckets))}
}

// Observe records one latency in seconds.
func (h *latencyHist) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range latencyBuckets {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.n++
	if len(h.samples) < latencyReservoirCap {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.next] = v
		h.next = (h.next + 1) % latencyReservoirCap
	}
}

// write renders the histogram and its quantile gauges under the given name.
func (h *latencyHist) write(w *metricsWriter, name, help string) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, n := h.sum, h.n
	qs := stats.Quantiles(h.samples, 0.5, 0.95, 0.99)
	h.mu.Unlock()

	w.header(name, "histogram", help)
	for i, b := range latencyBuckets {
		fmt.Fprintf(w.b, "%s_bucket{le=%q} %d\n", name, formatFloat(b), counts[i])
	}
	fmt.Fprintf(w.b, "%s_bucket{le=\"+Inf\"} %d\n", name, n)
	fmt.Fprintf(w.b, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(w.b, "%s_count %d\n", name, n)
	for i, q := range []string{"p50", "p95", "p99"} {
		w.gauge(name+"_"+q, "Quantile over the most recent observations.", qs[i])
	}
}

// httpStats counts served requests by route pattern and status code.
type httpStats struct {
	mu     sync.Mutex
	counts map[routeCode]int64
}

type routeCode struct {
	route string
	code  int
}

func newHTTPStats() *httpStats { return &httpStats{counts: map[routeCode]int64{}} }

func (s *httpStats) Inc(pattern string, code int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[routeCode{pattern, code}]++
}

func (s *httpStats) write(w *metricsWriter, name string) {
	s.mu.Lock()
	keys := make([]routeCode, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b routeCode) int {
		return cmp.Or(strings.Compare(a.route, b.route), a.code-b.code)
	})
	w.header(name, "counter", "HTTP requests served, by route and status code.")
	for _, k := range keys {
		fmt.Fprintf(w.b, "%s{route=%q,code=\"%d\"} %d\n", name, k.route, k.code, s.counts[k])
	}
	s.mu.Unlock()
}

// metricsWriter accumulates one exposition.
type metricsWriter struct {
	b *strings.Builder
}

func newMetricsWriter() *metricsWriter { return &metricsWriter{b: &strings.Builder{}} }

func (w *metricsWriter) header(name, typ, help string) {
	fmt.Fprintf(w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (w *metricsWriter) counter(name, help string, v int64) {
	w.header(name, "counter", help)
	fmt.Fprintf(w.b, "%s %d\n", name, v)
}

func (w *metricsWriter) gauge(name, help string, v float64) {
	w.header(name, "gauge", help)
	fmt.Fprintf(w.b, "%s %s\n", name, formatFloat(v))
}

func (w *metricsWriter) gaugeInt(name, help string, v int) {
	w.header(name, "gauge", help)
	fmt.Fprintf(w.b, "%s %d\n", name, v)
}

func (w *metricsWriter) String() string { return w.b.String() }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
