// Command loadgen drives jigsawd's HTTP front door hard enough to measure
// it: a closed-loop mode (K workers, each submit -> wait -> repeat) for peak
// sustainable throughput, and an open-loop mode (fixed arrival rate) for
// latency under a controlled offered load. Requests go through POST /v1/jobs
// or, with -batch > 1, through POST /v1/jobs:batch. Both modes honor the
// server's Retry-After hint (with jitter) when shed with a 429: closed-loop
// workers sleep before retrying, and the open loop pauses its arrival
// schedule until the hint expires (arrivals are deferred, not dropped, and
// the schedule resumes from the pause end rather than bursting to catch
// up). Back-off time is counted separately from request latency — and
// open-loop pauses separately from closed-loop sleeps — in both the
// per-request records and the end-of-run summary.
//
// With no -target it starts an in-process daemon (policy, radix, and clock
// selectable) on a loopback listener and aims at that, so CI can smoke the
// whole stack with one command and no port coordination.
//
// Every request can be logged as one JSON line (-records), and the run ends
// with a summary: accepted/shed/error counts, achieved jobs/s, and p50, p90,
// p99, and max request latency. -json swaps the human summary for a
// machine-readable one; -min-throughput and -fail-on-error turn the exit
// status into a CI assertion.
//
// Examples:
//
//	loadgen -duration 5s -workers 16 -batch 16
//	loadgen -target http://localhost:8080 -mode open -rate 2000 -duration 10s
//	loadgen -duration 2s -fail-on-error -min-throughput 1 -json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	jigsaw "repro"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	var (
		target      = flag.String("target", "", "base URL of a running jigsawd; empty starts an in-process daemon")
		mode        = flag.String("mode", "closed", "closed (K workers back-to-back) or open (fixed arrival rate)")
		workers     = flag.Int("workers", 8, "closed-loop concurrency")
		rate        = flag.Float64("rate", 1000, "open-loop request arrival rate per second")
		dur         = flag.Duration("duration", 5*time.Second, "how long to generate load")
		batch       = flag.Int("batch", 1, "jobs per request; >1 uses POST /v1/jobs:batch")
		sizeMin     = flag.Int("size-min", 1, "minimum job size in nodes")
		sizeMax     = flag.Int("size-max", 32, "maximum job size in nodes")
		wideFrac    = flag.Float64("wide-frac", 0, "fraction of requests that submit one cross-shard-sized job (sharded targets only)")
		elasticFrac = flag.Float64("elastic-frac", 0, "fraction of jobs submitted with elastic bounds (min_nodes=size/2, max_nodes=2*size) and alternating priority; requires an elastic target (in-process daemons turn -elastic on automatically)")
		jobRun      = flag.Float64("job-runtime", 60, "submitted job runtime in (virtual) seconds")
		seed        = flag.Int64("seed", 1, "job-mix RNG seed")
		records     = flag.String("records", "", "write one JSON line per request to this file")
		asJSON      = flag.Bool("json", false, "print the summary as JSON instead of text")

		// In-process daemon knobs (ignored with -target).
		radix  = flag.Int("radix", 8, "in-process fat-tree radix (8=256 nodes)")
		policy = flag.String("policy", jigsaw.SchemeJigsaw, "in-process allocation policy")
		clock  = flag.String("clock", "wall", "in-process clock mode: wall or virtual")
		shards = flag.Int("shards", 1, "in-process shard count (per-cell engines)")

		// CI assertions.
		minThroughput = flag.Float64("min-throughput", 0, "exit 1 if accepted jobs/s falls below this")
		failOnError   = flag.Bool("fail-on-error", false, "exit 1 if any request failed (429 shedding is not an error)")
	)
	flag.Parse()
	if err := run(config{
		target: *target, mode: *mode, workers: *workers, rate: *rate, dur: *dur,
		batch: *batch, sizeMin: *sizeMin, sizeMax: *sizeMax, wideFrac: *wideFrac,
		elasticFrac: *elasticFrac,
		jobRuntime:  *jobRun,
		seed:        *seed, records: *records, asJSON: *asJSON,
		radix: *radix, policy: *policy, clock: *clock, shards: *shards,
		minThroughput: *minThroughput, failOnError: *failOnError,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	target        string
	mode          string
	workers       int
	rate          float64
	dur           time.Duration
	batch         int
	sizeMin       int
	sizeMax       int
	wideFrac      float64
	elasticFrac   float64
	jobRuntime    float64
	seed          int64
	records       string
	asJSON        bool
	radix         int
	policy        string
	clock         string
	shards        int
	minThroughput float64
	failOnError   bool

	// Wide-job size range, discovered from the target's /v1/shards and
	// /v1/cluster when wideFrac > 0: (max_single_shard_size, min(2x, nodes)].
	wideMin, wideMax int
	// clusterNodes caps elastic max_nodes, discovered from /v1/cluster when
	// elasticFrac > 0 (the server rejects max_nodes above the machine).
	clusterNodes int
}

// record is one request's JSON line in the -records file. BackoffMS is the
// closed-loop back-off a 429 triggered, kept separate from LatencyMS so
// shed-heavy runs don't distort the latency percentiles.
type record struct {
	T         float64 `json:"t"` // seconds since run start, at request send
	Worker    int     `json:"worker"`
	Status    int     `json:"status"` // 0 on transport error
	Jobs      int     `json:"jobs"`   // jobs accepted by this request
	LatencyMS float64 `json:"latency_ms"`
	BackoffMS float64 `json:"backoff_ms,omitempty"`
	// OpenBackoffMS is the arrival-schedule pause this request's 429 added
	// in open-loop mode (only the extension beyond any pause already
	// pending, so summing the column gives total paused time).
	OpenBackoffMS float64 `json:"open_backoff_ms,omitempty"`
	// Wide marks a cross-shard-sized submission (-wide-frac); narrow and wide
	// latencies are split in the summary so a waiting wide job's effect on
	// single-shard traffic is measurable from the records alone.
	Wide bool   `json:"wide,omitempty"`
	Err  string `json:"err,omitempty"`
}

// collector accumulates per-request outcomes from all workers.
type collector struct {
	start time.Time

	mu        sync.Mutex
	enc       *json.Encoder // nil when -records is unset
	lat       []float64     // seconds, accepted requests only
	latNarrow []float64     // the subset from single-shard-sized requests
	latWide   []float64     // the subset from wide (cross-shard-sized) requests

	requests atomic.Int64 // total requests sent
	accepted atomic.Int64 // requests answered 202
	shed     atomic.Int64 // requests answered 429
	errors   atomic.Int64 // transport errors and unexpected statuses
	jobs     atomic.Int64 // jobs accepted across all requests
	wideJobs atomic.Int64 // wide jobs accepted
	backoff  atomic.Int64 // closed-loop 429 back-off, nanoseconds
	backoffs atomic.Int64 // back-off sleeps taken

	openBackoff  atomic.Int64 // open-loop 429 arrival pause, nanoseconds
	openBackoffs atomic.Int64 // open-loop pauses (extensions) taken
}

func (c *collector) note(worker int, sentAt time.Time, d time.Duration, status, jobs int, wide bool, backoff, openBackoff time.Duration, err error) {
	c.requests.Add(1)
	switch {
	case err != nil:
		c.errors.Add(1)
	case status == http.StatusAccepted:
		c.accepted.Add(1)
		c.jobs.Add(int64(jobs))
		if wide {
			c.wideJobs.Add(int64(jobs))
		}
		c.mu.Lock()
		c.lat = append(c.lat, d.Seconds())
		if wide {
			c.latWide = append(c.latWide, d.Seconds())
		} else {
			c.latNarrow = append(c.latNarrow, d.Seconds())
		}
		c.mu.Unlock()
	case status == http.StatusTooManyRequests:
		c.shed.Add(1)
	default:
		c.errors.Add(1)
	}
	if backoff > 0 {
		c.backoff.Add(int64(backoff))
		c.backoffs.Add(1)
	}
	if openBackoff > 0 {
		c.openBackoff.Add(int64(openBackoff))
		c.openBackoffs.Add(1)
	}
	if c.enc != nil {
		r := record{
			T:             sentAt.Sub(c.start).Seconds(),
			Worker:        worker,
			Status:        status,
			Jobs:          jobs,
			LatencyMS:     d.Seconds() * 1e3,
			BackoffMS:     backoff.Seconds() * 1e3,
			OpenBackoffMS: openBackoff.Seconds() * 1e3,
			Wide:          wide,
		}
		if err != nil {
			r.Err = err.Error()
		}
		c.mu.Lock()
		c.enc.Encode(r)
		c.mu.Unlock()
	}
}

func run(cfg config) error {
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.sizeMin < 1 || cfg.sizeMax < cfg.sizeMin {
		return fmt.Errorf("bad size range [%d, %d]", cfg.sizeMin, cfg.sizeMax)
	}
	if cfg.wideFrac < 0 || cfg.wideFrac > 1 {
		return fmt.Errorf("bad -wide-frac %g (want [0, 1])", cfg.wideFrac)
	}
	if cfg.elasticFrac < 0 || cfg.elasticFrac > 1 {
		return fmt.Errorf("bad -elastic-frac %g (want [0, 1])", cfg.elasticFrac)
	}

	base := cfg.target
	if base == "" {
		stop, addr, err := startInProcess(cfg)
		if err != nil {
			return err
		}
		defer stop()
		base = addr
	}

	if cfg.wideFrac > 0 {
		var err error
		if cfg.wideMin, cfg.wideMax, err = discoverWideRange(base); err != nil {
			return err
		}
	}
	if cfg.elasticFrac > 0 {
		var cl struct {
			Nodes int `json:"nodes"`
		}
		if err := getInto(base+"/v1/cluster", &cl); err != nil {
			return fmt.Errorf("elastic-frac: probing %s/v1/cluster: %w", base, err)
		}
		cfg.clusterNodes = cl.Nodes
	}

	col := &collector{start: time.Now()}
	if cfg.records != "" {
		f, err := os.Create(cfg.records)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<20)
		defer func() {
			w.Flush()
			f.Close()
		}()
		col.enc = json.NewEncoder(w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.dur)
	defer cancel()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.workers * 2,
	}}

	switch cfg.mode {
	case "closed":
		runClosed(ctx, cfg, client, base, col)
	case "open":
		runOpen(ctx, cfg, client, base, col)
	default:
		return fmt.Errorf("unknown mode %q (want closed or open)", cfg.mode)
	}
	elapsed := time.Since(col.start).Seconds()

	return report(cfg, col, elapsed)
}

// startInProcess boots a daemon on a loopback listener and returns its base
// URL plus a stop function.
func startInProcess(cfg config) (func(), string, error) {
	tree, err := jigsaw.NewFatTree(cfg.radix)
	if err != nil {
		return nil, "", err
	}
	a, err := jigsaw.NewAllocator(cfg.policy, tree)
	if err != nil {
		return nil, "", err
	}
	s, err := server.New(server.Config{
		Alloc:        a,
		VirtualClock: cfg.clock == "virtual",
		Shards:       cfg.shards,
		Elastic:      cfg.elasticFrac > 0,
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ctx, ln)
	}()
	stop := func() {
		cancel()
		<-done
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// discoverWideRange asks the target what "wider than any one shard" means:
// /v1/shards supplies max_single_shard_size and the shard count, /v1/cluster
// the total node count. Wide sizes are drawn uniformly from
// (max_single_shard_size, min(2*max, nodes)] — guaranteed to take the
// cross-shard path, bounded so most of them stay placeable.
func discoverWideRange(base string) (lo, hi int, err error) {
	var sh struct {
		Count int `json:"count"`
		Max   int `json:"max_single_shard_size"`
	}
	if err := getInto(base+"/v1/shards", &sh); err != nil {
		return 0, 0, fmt.Errorf("wide-frac: probing %s/v1/shards: %w", base, err)
	}
	if sh.Count < 2 || sh.Max <= 0 {
		return 0, 0, fmt.Errorf("wide-frac requires a sharded target (shard count %d)", sh.Count)
	}
	var cl struct {
		Nodes int `json:"nodes"`
	}
	if err := getInto(base+"/v1/cluster", &cl); err != nil {
		return 0, 0, fmt.Errorf("wide-frac: probing %s/v1/cluster: %w", base, err)
	}
	hi = 2 * sh.Max
	if hi > cl.Nodes {
		hi = cl.Nodes
	}
	if hi <= sh.Max {
		return 0, 0, fmt.Errorf("wide-frac: no cross-shard sizes exist (max shard %d, cluster %d)", sh.Max, cl.Nodes)
	}
	return sh.Max + 1, hi, nil
}

func getInto(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// requestBody builds one submit request body holding cfg.batch jobs — or,
// with probability cfg.wideFrac, a single cross-shard-sized job, which always
// goes through POST /v1/jobs (wide jobs are coordinator-owned and never
// batch; reported wide=true so the collector can split latencies).
func requestBody(cfg config, rng *rand.Rand) (path string, body []byte, wide bool) {
	type jobReq struct {
		Size     int     `json:"size"`
		Runtime  float64 `json:"runtime"`
		MinNodes int     `json:"min_nodes,omitempty"`
		MaxNodes int     `json:"max_nodes,omitempty"`
		Priority int     `json:"priority,omitempty"`
	}
	// elasticize stamps malleability bounds on a job with probability
	// cfg.elasticFrac: shrinkable to half size, growable to double (capped at
	// the cluster), half of them at priority 1 to exercise preemption.
	elasticize := func(j jobReq) jobReq {
		if cfg.elasticFrac <= 0 || rng.Float64() >= cfg.elasticFrac {
			return j
		}
		j.MinNodes = (j.Size + 1) / 2
		j.MaxNodes = 2 * j.Size
		if cfg.clusterNodes > 0 && j.MaxNodes > cfg.clusterNodes {
			j.MaxNodes = cfg.clusterNodes
		}
		j.Priority = rng.Intn(2)
		return j
	}
	if cfg.wideFrac > 0 && rng.Float64() < cfg.wideFrac {
		b, _ := json.Marshal(elasticize(jobReq{
			Size:    cfg.wideMin + rng.Intn(cfg.wideMax-cfg.wideMin+1),
			Runtime: cfg.jobRuntime,
		}))
		return "/v1/jobs", b, true
	}
	one := func() jobReq {
		return elasticize(jobReq{Size: cfg.sizeMin + rng.Intn(cfg.sizeMax-cfg.sizeMin+1), Runtime: cfg.jobRuntime})
	}
	if cfg.batch == 1 {
		b, _ := json.Marshal(one())
		return "/v1/jobs", b, false
	}
	jobs := make([]jobReq, cfg.batch)
	for i := range jobs {
		jobs[i] = one()
	}
	b, _ := json.Marshal(map[string]any{"jobs": jobs})
	return "/v1/jobs:batch", b, false
}

// doRequest sends one submit and reports how many jobs it got accepted. On
// 429 it also reports the server's Retry-After hint; retryAfter is -1 when
// the server sent none (or an unparseable one).
func doRequest(cfg config, client *http.Client, base, path string, body []byte) (status, jobs int, retryAfter time.Duration, err error) {
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, -1, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		retryAfter = -1
		if resp.StatusCode == http.StatusTooManyRequests {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return resp.StatusCode, 0, retryAfter, nil
	}
	if path == "/v1/jobs" { // single submit (batch of 1, or a wide job)
		return resp.StatusCode, 1, -1, nil
	}
	var br struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return resp.StatusCode, 0, -1, err
	}
	return resp.StatusCode, br.Accepted, -1, nil
}

// backoffFor turns a 429's Retry-After hint into a sleep: the hint itself
// (1s when the server sent none), plus uniform jitter of up to 100ms + a
// quarter of the hint so a fleet of shed workers doesn't re-dogpile the
// queue on the same tick. A 0 hint ("retry immediately, the queue turns
// over in under a second") still jitters, spreading the retries out.
func backoffFor(retryAfter time.Duration, rng *rand.Rand) time.Duration {
	if retryAfter < 0 {
		retryAfter = time.Second
	}
	jitter := time.Duration(rng.Float64() * float64(100*time.Millisecond+retryAfter/4))
	return retryAfter + jitter
}

// runClosed is the closed loop: each worker keeps exactly one request in
// flight, so total concurrency is fixed and the achieved rate is the
// system's sustainable throughput at that concurrency. A worker whose
// request is shed honors the server's Retry-After (with jitter; see
// backoffFor) before retrying, instead of hammering a queue that just
// reported itself full; the back-off time is recorded separately from
// request latency.
func runClosed(ctx context.Context, cfg config, client *http.Client, base string, col *collector) {
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			for ctx.Err() == nil {
				path, body, wide := requestBody(cfg, rng)
				t0 := time.Now()
				status, jobs, retryAfter, err := doRequest(cfg, client, base, path, body)
				var backoff time.Duration
				if err == nil && status == http.StatusTooManyRequests {
					backoff = backoffFor(retryAfter, rng)
				}
				col.note(w, t0, time.Since(t0), status, jobs, wide, backoff, 0, err)
				if backoff > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(backoff):
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// extendPause advances the shared pause deadline to now+b and returns the
// pause actually added: the full b when no pause was pending, only the
// extension when one was, and 0 when an earlier 429 already paused past the
// new deadline. Keeping only the increment means the open-loop back-off
// totals sum to real paused wall time even when a burst of 429s lands at
// once.
func extendPause(pauseUntil *atomic.Int64, b time.Duration, now time.Time) time.Duration {
	deadline := now.Add(b).UnixNano()
	for {
		cur := pauseUntil.Load()
		if deadline <= cur {
			return 0
		}
		if pauseUntil.CompareAndSwap(cur, deadline) {
			if cur > now.UnixNano() {
				return time.Duration(deadline - cur)
			}
			return b
		}
	}
}

// runOpen is the open loop: requests start at a fixed rate regardless of how
// fast responses come back, so latency reflects queueing at the offered
// load. In-flight requests are capped to keep a stalled server from
// spawning unbounded goroutines; arrivals past the cap are counted as
// errors (the generator itself became the bottleneck).
//
// A 429 pauses the arrival schedule for the server's Retry-After hint (with
// the same jitter policy as the closed loop; see backoffFor): arrivals are
// deferred, not dropped, and the schedule resumes from the pause end rather
// than bursting to catch up. Pause time is counted separately from the
// closed loop's per-worker sleeps, in the records (open_backoff_ms) and the
// summary (open_backoff_s / open_backoffs).
func runOpen(ctx context.Context, cfg config, client *http.Client, base string, col *collector) {
	if cfg.rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	inflight := make(chan struct{}, 4096)
	rng := rand.New(rand.NewSource(cfg.seed))
	// Response goroutines draw back-off jitter from their own guarded rng so
	// arrival-body generation stays deterministic per seed.
	var pauseRngMu sync.Mutex
	pauseRng := rand.New(rand.NewSource(cfg.seed + 1))
	var pauseUntil atomic.Int64 // unix nanos; arrivals wait while now < pauseUntil
	var wg sync.WaitGroup
	next := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		// Honor any pending 429 pause before scheduling the next arrival.
		for {
			p := pauseUntil.Load()
			if p <= time.Now().UnixNano() {
				break
			}
			end := time.Unix(0, p)
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			case <-time.After(time.Until(end)):
			}
			if next.Before(end) {
				next = end
			}
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			case <-time.After(d):
			}
		}
		path, body, wide := requestBody(cfg, rng)
		select {
		case inflight <- struct{}{}:
		default:
			col.requests.Add(1)
			col.errors.Add(1) // generator saturated: too many outstanding
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-inflight }()
			t0 := time.Now()
			status, jobs, retryAfter, err := doRequest(cfg, client, base, path, body)
			var openBackoff time.Duration
			if err == nil && status == http.StatusTooManyRequests {
				pauseRngMu.Lock()
				b := backoffFor(retryAfter, pauseRng)
				pauseRngMu.Unlock()
				openBackoff = extendPause(&pauseUntil, b, time.Now())
			}
			col.note(i%cfg.workers, t0, time.Since(t0), status, jobs, wide, 0, openBackoff, err)
		}(i)
	}
	wg.Wait()
}

func report(cfg config, col *collector, elapsed float64) error {
	col.mu.Lock()
	lat, latNarrow, latWide := col.lat, col.latNarrow, col.latWide
	col.mu.Unlock()
	sort.Float64s(lat)
	p50 := stats.Percentile(lat, 50)
	p90 := stats.Percentile(lat, 90)
	p99 := stats.Percentile(lat, 99)
	var max float64
	if len(lat) > 0 {
		max = lat[len(lat)-1]
	}
	throughput := float64(col.jobs.Load()) / elapsed

	if cfg.asJSON {
		out := map[string]any{
			"mode":           cfg.mode,
			"workers":        cfg.workers,
			"batch":          cfg.batch,
			"duration_s":     elapsed,
			"requests":       col.requests.Load(),
			"accepted":       col.accepted.Load(),
			"shed_429":       col.shed.Load(),
			"errors":         col.errors.Load(),
			"jobs_accepted":  col.jobs.Load(),
			"jobs_per_sec":   throughput,
			"latency_p50_ms": p50 * 1e3,
			"latency_p90_ms": p90 * 1e3,
			"latency_p99_ms": p99 * 1e3,
			"latency_max_ms": max * 1e3,
			"backoff_s":      time.Duration(col.backoff.Load()).Seconds(),
			"backoffs":       col.backoffs.Load(),
			"open_backoff_s": time.Duration(col.openBackoff.Load()).Seconds(),
			"open_backoffs":  col.openBackoffs.Load(),
		}
		if cfg.wideFrac > 0 {
			sort.Float64s(latNarrow)
			sort.Float64s(latWide)
			out["wide_frac"] = cfg.wideFrac
			out["wide_jobs_accepted"] = col.wideJobs.Load()
			out["narrow_latency_p50_ms"] = stats.Percentile(latNarrow, 50) * 1e3
			out["narrow_latency_p99_ms"] = stats.Percentile(latNarrow, 99) * 1e3
			out["wide_latency_p50_ms"] = stats.Percentile(latWide, 50) * 1e3
			out["wide_latency_p99_ms"] = stats.Percentile(latWide, 99) * 1e3
		}
		json.NewEncoder(os.Stdout).Encode(out)
	} else {
		fmt.Printf("loadgen: mode=%s workers=%d batch=%d elapsed=%.2fs\n",
			cfg.mode, cfg.workers, cfg.batch, elapsed)
		fmt.Printf("requests: %d (accepted %d, shed 429 %d, errors %d)\n",
			col.requests.Load(), col.accepted.Load(), col.shed.Load(), col.errors.Load())
		fmt.Printf("jobs:     %d accepted -> %.1f jobs/s\n", col.jobs.Load(), throughput)
		fmt.Printf("latency:  p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms\n",
			p50*1e3, p90*1e3, p99*1e3, max*1e3)
		if cfg.wideFrac > 0 {
			sort.Float64s(latNarrow)
			sort.Float64s(latWide)
			fmt.Printf("narrow:   %d requests  p50 %.3fms  p99 %.3fms\n", len(latNarrow),
				stats.Percentile(latNarrow, 50)*1e3, stats.Percentile(latNarrow, 99)*1e3)
			fmt.Printf("wide:     %d requests (%d jobs, sizes %d-%d)  p50 %.3fms  p99 %.3fms\n",
				len(latWide), col.wideJobs.Load(), cfg.wideMin, cfg.wideMax,
				stats.Percentile(latWide, 50)*1e3, stats.Percentile(latWide, 99)*1e3)
		}
		fmt.Printf("backoff:  %.3fs total across %d 429 sleeps\n",
			time.Duration(col.backoff.Load()).Seconds(), col.backoffs.Load())
		fmt.Printf("open:     %.3fs arrival pause across %d 429 extensions\n",
			time.Duration(col.openBackoff.Load()).Seconds(), col.openBackoffs.Load())
	}

	if cfg.failOnError && col.errors.Load() > 0 {
		return fmt.Errorf("%d requests failed", col.errors.Load())
	}
	if throughput < cfg.minThroughput {
		return fmt.Errorf("throughput %.1f jobs/s below required %.1f", throughput, cfg.minThroughput)
	}
	return nil
}
