// Package server wraps the incremental scheduling engine (internal/engine)
// in a long-running HTTP service: the missing online half of the paper's
// scheduler, which installs allocations on a live cluster rather than
// replaying a recorded trace.
//
// # Concurrency model
//
// The fabric is split into Config.Shards contiguous pod ranges ("cells",
// internal/shard), each owned by one lane (lane.go): a single-threaded
// engine on its own goroutine, fronted by a bounded ingest queue
// (internal/ingest) for writes and an RCU-style snapshot (internal/snapshot)
// for reads. Engines are never locked; each lane's goroutine owns its engine
// exclusively, and the lanes drain in parallel.
//
// The Server is a routing gateway over its lanes and has one shape at every
// lane count; one lane whose cell is the whole tree is simply the smallest
// instance of it:
//
//   - The gateway gives every ID-less job its ID (Server.nextID, which also
//     moves past every explicit ID it sees) and routes it by a deterministic
//     hash of that ID to a lane whose cell is wide enough. Lanes schedule
//     fully in parallel with each other.
//   - Jobs wider than every cell take the cross-shard path (cross.go): a
//     coordinator composes a partition across lanes that the
//     internal/partition legality conditions verify once, splits it per
//     cell, and charges each engine its slice via StartPlaced. No job is
//     wider than the cell of a single lane, so a single lane has no
//     coordinator.
//   - Reads merge the per-lane snapshots (snapshot.Merge): internally
//     consistent per shard, boundedly stale across shards, with a composite
//     monotone sequence number. The merge of one view is that view.
//   - Failure injection applies to the lanes the failure touches: the lane
//     owning the pod, or every lane in ascending order for a spine switch
//     (which spans every cell), reverting on partial failure.
//
// The shard-count differential tests pin that the gateway over one lane
// schedules exactly like the bare engine.
//
// Time is one value, the clock New builds from Config.VirtualClock and
// Config.nowFunc (lane.go). Every lane runs one loop and asks the clock:
//
//   - virtual: a job arrives when it asks to, and an idle lane steps its
//     engine to the next event as fast as the allocator places jobs.
//   - wall: engine time is real seconds (nowFunc); a job arrives when it is
//     submitted, every turn first delivers what is due by now, and an idle
//     lane sleeps until its next event (at most a minute, then looks again).
//
// # API
//
//	POST   /v1/jobs       submit a job           {"size":64,"runtime":3600}
//	POST   /v1/jobs:batch submit many jobs       {"jobs":[{...},{...}]}
//	GET    /v1/jobs/{id}  job status
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /v1/queue      waiting jobs in FIFO order (snapshot-served)
//	GET    /v1/cluster    topology, occupancy, utilization, counters
//	GET    /v1/shards     per-shard cells, occupancy, and queue depths
//	POST   /v1/fail       fail a resource        {"kind":"node","node":5}
//	POST   /v1/recover    recover a failed resource (same body as /v1/fail)
//	GET    /metrics       Prometheus text format (version 0.0.4)
//	GET    /healthz       liveness probe; reports "degraded" under failures
//	/debug/pprof/         runtime profiling
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ErrClosed is returned by requests that arrive after Close.
var ErrClosed = errors.New("server: closed")

// Config configures a daemon instance.
type Config struct {
	// Alloc is the placement policy the engine schedules with; required.
	// Build one with jigsaw.NewAllocator (cmd/jigsawd does). With Shards > 1
	// it must be freshly constructed (nothing allocated): every lane
	// schedules with a copy restricted to its cell.
	Alloc alloc.Allocator
	// Scenario assigns isolated-execution speed-ups when ApplySpeedups is
	// set; nil means scenario "None".
	Scenario      scenario.Scenario
	ApplySpeedups bool
	// Window is the EASY backfill lookahead; 0 means the paper's default.
	Window int
	// DisableBackfill reverts to pure FIFO service.
	DisableBackfill bool
	// OnFailure picks what happens to running jobs hit by POST /v1/fail:
	// requeue (default), kill, or shrink (shrink re-places malleable jobs
	// on the surviving fabric; it requires Elastic and falls back to
	// requeue for rigid jobs).
	OnFailure engine.FailurePolicy
	// Elastic enables the engines' malleability moves (shrink/grow/preempt
	// and deadline admission verdicts, DESIGN.md §17) and the per-job
	// elastic fields on POST /v1/jobs. Jobs that declare no elastic fields
	// schedule exactly as on a non-elastic daemon.
	Elastic bool
	// VirtualClock fast-forwards through events instead of tracking wall
	// time; use it to replay traces.
	VirtualClock bool
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Shards splits the fabric into this many per-cell engines (lanes).
	// 0 means 1: one lane whose cell is the whole tree.
	Shards int

	nowFunc     func() float64 // test seam: wall-clock seconds; nil counts from New
	ingestQueue int            // test seam: per-lane queue bound, shed with 429 past it; 0 is 4096
}

const (
	defaultIngestQueue = 4096
	// defaultMaxBatch bounds how many queued operations one engine tick
	// applies.
	defaultMaxBatch = 256
	// publishEveryStepsVirtual bounds snapshot staleness during long
	// virtual-clock replays: mid-replay, readers are at most this many
	// events behind.
	publishEveryStepsVirtual = 64
	// publishCheapThreshold is the active-job count up to which a snapshot
	// capture is cheap enough to pay on every drain. Beyond it, capture cost
	// is O(active jobs) per publish and would dominate ingest throughput, so
	// publishes are spaced out in time instead.
	publishCheapThreshold = 4096
	// publishMinInterval is the floor on publish spacing once the active
	// set is over the cheap threshold. The effective interval also scales
	// with the measured capture cost (publishCostMultiple × the previous
	// capture's duration) so that publish overhead stays a bounded fraction
	// of engine time no matter how deep the backlog gets, clamped at
	// publishMaxInterval. A deferred publish is flushed by the next drain or
	// idle turn past the interval, on either clock (lane.publish).
	publishMinInterval  = 25 * time.Millisecond
	publishCostMultiple = 20
	publishMaxInterval  = time.Second
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers, so a client that stalls mid-header cannot hold a
	// connection (and its goroutine) forever; idleTimeout closes keep-alive
	// connections that stay silent between requests. Neither limits a slow
	// body or a long-running handler.
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// crossOwner marks a job routed to the cross-shard coordinator in the owner
// map (lane indices are >= 0).
const crossOwner = -1

// ownerStripes is the number of independently-locked parts of an ownerMap.
// Gateway-assigned IDs are sequential, so id mod ownerStripes spreads them
// evenly.
const ownerStripes = 16

// ownerMap records job ID -> owning lane index (or crossOwner) for every job
// the gateway ever routed. Entries are never removed, so the maps hold
// neither pointers nor boxed values: the garbage collector does not scan
// their storage however many jobs the daemon has seen.
//
// A nil *ownerMap is the map of a one-lane server: lane 0 owns every ID and
// nothing is recorded (see New for the measurement).
type ownerMap [ownerStripes]struct {
	mu sync.Mutex
	m  map[int64]int32
}

// load resolves the lane (or crossOwner) that owns id; GET and DELETE
// /v1/jobs/{id} both route through it.
func (o *ownerMap) load(id int64) (int, bool) {
	if o == nil {
		return 0, true
	}
	st := &o[uint64(id)%ownerStripes]
	st.mu.Lock()
	li, ok := st.m[id]
	st.mu.Unlock()
	return int(li), ok
}

// loadOrStore returns the recorded owner of id if there is one (loaded true),
// and records li otherwise.
func (o *ownerMap) loadOrStore(id int64, li int) (owner int, loaded bool) {
	if o == nil {
		return li, false
	}
	st := &o[uint64(id)%ownerStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	if got, ok := st.m[id]; ok {
		return int(got), true
	}
	if st.m == nil {
		st.m = map[int64]int32{}
	}
	st.m[id] = int32(li)
	return li, false
}

// Server is one daemon instance: one lane per shard, the routing gateway,
// and the HTTP surface. Create with New, serve with Serve/ListenAndServe or
// by mounting Handler, and stop with Close.
type Server struct {
	cfg   Config
	log   *slog.Logger
	tree  *topology.FatTree
	cells []shard.Cell
	lanes []*lane
	// clock is the one virtual-or-wall decision (lane.go).
	clock clock

	// maxCell is the widest job a single lane can host; wider jobs go
	// cross-shard.
	maxCell int
	// nextID is the last job ID the gateway assigned or saw (assignAndRoute).
	// The lanes' appliers never assign: every job reaches them with an ID.
	nextID atomic.Int64
	// owner maps job ID -> owning lane index (or crossOwner); nil with one
	// lane.
	owner *ownerMap
	// cross is the wide-job coordinator; nil when no job can be wider than a
	// cell.
	cross *coordinator

	httpStats *httpStats
}

// New builds one engine per shard and starts their owning goroutines.
func New(cfg Config) (*Server, error) {
	if cfg.Scenario == nil {
		cfg.Scenario = scenario.None{}
	}
	if cfg.Logger == nil {
		// A level above every level: Enabled is false, so no record is built.
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	if cfg.ingestQueue <= 0 {
		cfg.ingestQueue = defaultIngestQueue
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Alloc == nil {
		return nil, fmt.Errorf("server: nil allocator")
	}
	tree := cfg.Alloc.Tree()
	cells, err := shard.Plan(tree, cfg.Shards)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		tree:      tree,
		cells:     cells,
		maxCell:   shard.MaxCellNodes(tree, cells),
		clock:     newClock(cfg.VirtualClock, cfg.nowFunc),
		httpStats: newHTTPStats(),
	}
	s.lanes = make([]*lane, len(cells))
	// Lane 0 schedules with cfg.Alloc itself and is built last, so every
	// other lane clones the seed before anything restricts it.
	for i := len(cells) - 1; i >= 0; i-- {
		a, c := cfg.Alloc, cells[i]
		if i > 0 {
			a = a.Clone()
		}
		if c.Pods() < tree.Pods {
			// RestrictToPods requires a pristine state.
			if a.State().Version() != 0 {
				return nil, fmt.Errorf("server: sharding requires a freshly-constructed allocator")
			}
			a.State().RestrictToPods(c.PodLo, c.PodHi)
		}
		eng, err := engine.New(engine.Config{
			Alloc:           a,
			Scenario:        cfg.Scenario,
			Window:          cfg.Window,
			DisableBackfill: cfg.DisableBackfill,
			ApplySpeedups:   cfg.ApplySpeedups,
			OnFailure:       cfg.OnFailure,
			Elastic:         cfg.Elastic,
			TotalNodes:      c.Nodes(tree),
		})
		if err != nil {
			return nil, err
		}
		s.lanes[i] = newLane(eng, s.clock, cfg.ingestQueue, defaultMaxBatch)
	}
	if len(cells) > 1 {
		// Only with more than one lane can a job live anywhere but lane 0 or
		// be wider than a cell, so only then do the owner map and the
		// coordinator exist. One lane keeping the map would pay, at the
		// 640 000 IDs of one front-door repeat, 181 ns per insert and 18.9 MB
		// live (25.5 MB of Sys) against ~0.72 us of daemon CPU per job and
		// 70.6 MB peak RSS: +25% CPU and +27-36% RSS for a map whose every
		// value is 0.
		s.owner = new(ownerMap)
		// The coordinator exists before any lane loop starts, and every lane
		// publishes once with pod summaries turned on before its loop does:
		// no reader can load a View without them, and every later publish
		// that shows freed capacity rings the coordinator. Its run goroutine
		// just blocks on the wake channel until the first submit.
		s.cross = newCoordinator(s)
		for _, l := range s.lanes {
			l.pub.CapturePodSummaries()
			l.onFree = s.cross.signalWake
			l.publishNow()
		}
	}
	for _, l := range s.lanes {
		go l.loop()
	}
	return s, nil
}

// Close stops the coordinator (which may hold lanes parked) and then every
// lane. Operations already accepted into the ingest queues are applied and
// answered before the lanes stop; requests after Close fail cleanly
// (ErrClosed / 503). Safe to call more than once.
func (s *Server) Close() {
	if s.cross != nil {
		s.cross.close()
	}
	for _, l := range s.lanes {
		l.close()
	}
}

// laneViews loads every lane's current View; views[i] is lane i's.
func (s *Server) laneViews() []*snapshot.View {
	views := make([]*snapshot.View, len(s.lanes))
	for i, l := range s.lanes {
		views[i] = l.pub.Load()
	}
	return views
}

// view returns the read-path snapshot: the merged per-lane Views, with the
// coordinator's waiting jobs merged in as one more shard that has only a
// queue (so they sort into the cluster-wide queue by Merge's own order).
func (s *Server) view() *snapshot.View {
	views := s.laneViews()
	if s.cross != nil {
		if waiting := s.cross.waiting(); len(waiting) > 0 {
			views = append(views, &snapshot.View{
				PublishedAt: views[0].PublishedAt, // not older than the oldest lane
				Snap:        engine.Snapshot{Queue: waiting},
			})
		}
	}
	return snapshot.Merge(views)
}

// Handler returns the daemon's HTTP surface with request logging and
// per-route metrics attached.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("POST /v1/jobs", s.handleSubmit))
	mux.HandleFunc("POST /v1/jobs:batch", s.instrument("POST /v1/jobs:batch", s.handleBatch))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("GET /v1/jobs/{id}", s.handleGetJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("DELETE /v1/jobs/{id}", s.handleCancel))
	mux.HandleFunc("GET /v1/queue", s.instrument("GET /v1/queue", s.handleQueue))
	mux.HandleFunc("GET /v1/cluster", s.instrument("GET /v1/cluster", s.handleCluster))
	mux.HandleFunc("GET /v1/shards", s.instrument("GET /v1/shards", s.handleShards))
	mux.HandleFunc("POST /v1/fail", s.instrument("POST /v1/fail", s.handleFail))
	mux.HandleFunc("POST /v1/recover", s.instrument("POST /v1/recover", s.handleRecover))
	mux.HandleFunc("GET /metrics", s.instrument("GET /metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("GET /healthz", s.handleHealthz))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve accepts connections until ctx is cancelled, then shuts down
// gracefully: in-flight requests drain (up to 10s) before the engine stops.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.serve(ctx, ln, readHeaderTimeout, idleTimeout)
}

func (s *Server) serve(ctx context.Context, ln net.Listener, readHeader, idle time.Duration) error {
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeader, IdleTimeout: idle}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(shCtx)
		s.Close()
		return err
	case err := <-errc:
		s.Close()
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return err
	}
	s.log.Info("listening", "addr", ln.Addr().String(), "policy", s.cfg.Alloc.Name(),
		"nodes", s.cfg.Alloc.Tree().Nodes(), "clock", s.clock.name(), "shards", len(s.lanes))
	return s.Serve(ctx, ln)
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with structured logging and request counting.
// A request allocates only its statusWriter unless the logger records it.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.httpStats.Inc(pattern, sw.code)
		if s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.code,
				"duration_ms", float64(time.Since(t0).Microseconds())/1e3,
				"remote", r.RemoteAddr,
			)
		}
	}
}

// jobJSON is the wire form of a job's status. Start and End are engine
// (virtual) times and are zero until the job starts; for running jobs End
// is the predicted completion.
type jobJSON struct {
	ID         int64   `json:"id"`
	Size       int     `json:"size"`
	Runtime    float64 `json:"runtime"`
	EffRuntime float64 `json:"eff_runtime"`
	Arrival    float64 `json:"arrival"`
	State      string  `json:"state"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	// Elastic fields, omitted for rigid jobs. Size reflects the current
	// size of a shrunk/grown running job; Verdict is the submit-time
	// deadline admission answer ("accepted", "accepted-at-risk", or
	// "rejected").
	MinNodes int     `json:"min_nodes,omitempty"`
	MaxNodes int     `json:"max_nodes,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	Verdict  string  `json:"verdict,omitempty"`
}

func toJobJSON(st engine.JobStatus) jobJSON {
	return jobJSON{
		ID:         st.Job.ID,
		Size:       st.Job.Size,
		Runtime:    st.Job.Runtime,
		EffRuntime: st.Runtime,
		Arrival:    st.Job.Arrival,
		State:      st.State.String(),
		Start:      st.Start,
		End:        st.End,
		MinNodes:   st.Job.MinNodes,
		MaxNodes:   st.Job.MaxNodes,
		Priority:   st.Job.Priority,
		Deadline:   st.Job.Deadline,
		Verdict:    st.Verdict.String(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitRequest is the POST /v1/jobs body (and one element of the
// /v1/jobs:batch jobs array). ID 0 auto-assigns; Arrival is a virtual-clock
// timestamp honored only in virtual mode (wall mode schedules at the
// current time).
type submitRequest struct {
	ID      int64   `json:"id"`
	Size    int     `json:"size"`
	Runtime float64 `json:"runtime"`
	Arrival float64 `json:"arrival"`
	// Elastic fields (Config.Elastic only): a malleable node-count range,
	// a preemption priority, and an absolute virtual-time deadline. All
	// default to the rigid zero values.
	MinNodes int     `json:"min_nodes"`
	MaxNodes int     `json:"max_nodes"`
	Priority int     `json:"priority"`
	Deadline float64 `json:"deadline"`
}

// validateSubmit applies the admission checks shared by the single and
// batch submit endpoints, and stamps Arrival by the clock (wall: now).
func (s *Server) validateSubmit(req *submitRequest) error {
	if req.Size < 1 {
		return errors.New("size must be at least 1")
	}
	if total := s.cfg.Alloc.Tree().Nodes(); req.Size > total {
		return fmt.Errorf("size %d exceeds cluster size %d", req.Size, total)
	}
	if req.Runtime <= 0 {
		return errors.New("runtime must be positive")
	}
	if req.ID < 0 {
		return errors.New("id must be non-negative")
	}
	if req.MinNodes != 0 || req.MaxNodes != 0 || req.Priority != 0 || req.Deadline != 0 {
		if !s.cfg.Elastic {
			return errors.New("elastic fields require an elastic daemon (-elastic)")
		}
		if req.MinNodes < 0 || req.MaxNodes < 0 {
			return errors.New("min_nodes and max_nodes must be non-negative")
		}
		if req.MinNodes > 0 && req.MinNodes > req.Size {
			return fmt.Errorf("min_nodes %d exceeds size %d", req.MinNodes, req.Size)
		}
		if req.MaxNodes > 0 && req.MaxNodes < req.Size {
			return fmt.Errorf("max_nodes %d below size %d", req.MaxNodes, req.Size)
		}
		if total := s.cfg.Alloc.Tree().Nodes(); req.MaxNodes > total {
			return fmt.Errorf("max_nodes %d exceeds cluster size %d", req.MaxNodes, total)
		}
		if req.Priority < 0 {
			return errors.New("priority must be non-negative")
		}
		if req.Deadline < 0 {
			return errors.New("deadline must be non-negative")
		}
	}
	req.Arrival = s.clock.at(req.Arrival)
	return nil
}

func (req *submitRequest) job() trace.Job {
	return trace.Job{
		ID: req.ID, Size: req.Size, Arrival: req.Arrival, Runtime: req.Runtime,
		MinNodes: req.MinNodes, MaxNodes: req.MaxNodes,
		Priority: req.Priority, Deadline: req.Deadline,
	}
}

// assignAndRoute gives a job its ID and its owner. An ID-less job draws the
// next ID from nextID, and an explicit ID moves nextID past itself first, so
// an assigned ID never collides with one a client chose, at any lane count.
// It returns the owning lane's index or crossOwner; the error is a duplicate
// of a cross-owned ID, which no engine's own duplicate check could report.
func (s *Server) assignAndRoute(req *submitRequest) (int, error) {
	if req.ID == 0 {
		req.ID = s.nextID.Add(1)
	} else {
		for {
			cur := s.nextID.Load()
			if cur >= req.ID || s.nextID.CompareAndSwap(cur, req.ID) {
				break
			}
		}
	}
	want := crossOwner
	if req.Size <= s.maxCell {
		// Deterministic by (ID, size), so replaying a trace routes every job
		// identically.
		want = shard.RouteHash(s.tree, s.cells, req.ID, req.Size)
	}
	li, loaded := s.owner.loadOrStore(req.ID, want)
	if loaded && li == crossOwner {
		// Existing ID: a lane-owned duplicate is submitted to its owning
		// lane so the engine reports the duplicate exactly as a bare engine
		// would; a cross-owned duplicate is rejected here.
		return 0, fmt.Errorf("engine: duplicate job id %d", req.ID)
	}
	return li, nil
}

// admission is one submitted job on its way through admit: the op whose
// Status or Err ends up holding its outcome, the owning lane (-1 for none),
// and the lane sub-batch that queued it.
type admission struct {
	op    ingest.Op
	lane  int
	batch *ingest.Batch
}

// admit is the one admission path of POST /v1/jobs and /v1/jobs:batch. It
// validates each job, gives it its ID and owner, hands a wide job to the
// coordinator, and fans the rest out as one sub-batch per lane. Each lane's
// sub-batch is admitted all-or-nothing, and every lane is enqueued before any
// is waited on, so lanes apply in parallel. It returns one admission per job,
// in request order, every one with its outcome.
func (s *Server) admit(reqs []submitRequest) []admission {
	ads := make([]admission, len(reqs))
	now := time.Now()
	for i := range reqs {
		a := &ads[i]
		a.lane = -1
		if err := s.validateSubmit(&reqs[i]); err != nil {
			a.op.Err = statusError{http.StatusBadRequest, err}
			continue
		}
		li, err := s.assignAndRoute(&reqs[i])
		if err != nil {
			a.op.Err = err
			continue
		}
		a.op = ingest.Op{Kind: ingest.Submit, Job: reqs[i].job(), EnqueuedAt: now}
		if li == crossOwner {
			a.op.Status, a.op.Err = s.cross.submit(a.op.Job)
		} else {
			a.lane = li
		}
	}
	ops := make([]*ingest.Op, 0, len(ads))
	for li, l := range s.lanes {
		ops = ops[:0]
		for i := range ads {
			if ads[i].lane == li {
				ops = append(ops, &ads[i].op)
			}
		}
		if len(ops) == 0 {
			continue
		}
		batch, err := l.enqueue(ops...)
		for i := range ads {
			switch a := &ads[i]; {
			case a.lane != li:
			case err != nil:
				a.op.Err = err
			default:
				a.batch = batch // the op's Err is the lane's to write from here on
			}
		}
	}
	for i := range ads {
		if b := ads[i].batch; b != nil {
			b.Wait()
		}
	}
	return ads
}

// handleSubmit admits its job as a one-item batch and answers with the
// item's outcome alone.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req [1]submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req[0]); err != nil {
		writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return
	}
	a := &s.admit(req[:])[0]
	if a.op.Err != nil {
		writeFailure(w, a.op.Err)
		return
	}
	writeJSON(w, http.StatusAccepted, toJobJSON(a.op.Status))
}

// batchItemResult is one element of the /v1/jobs:batch response: the job's
// status on success (flattened), or an error string.
type batchItemResult struct {
	*jobJSON
	Error string `json:"error,omitempty"`
}

// handleBatch admits the batch's jobs and answers by one rule at every lane
// count: when nothing was queued and a lane shed its sub-batch, the whole
// request is shed (429, the largest Retry-After among the lanes that refused
// — the signal clients back off on); when nothing was queued because the
// server is closing, 503; otherwise 202 with per-item results, plus the
// Retry-After header if some lane shed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Jobs []submitRequest `json:"jobs"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "jobs must be non-empty")
		return
	}
	if max := s.cfg.ingestQueue; len(req.Jobs) > max {
		writeError(w, http.StatusBadRequest,
			"batch of %d jobs exceeds ingest queue capacity %d", len(req.Jobs), max)
		return
	}
	ads := s.admit(req.Jobs)
	results := make([]batchItemResult, len(ads))
	queued, retryAfter := 0, -1
	var closedErr error
	for i := range ads {
		a := &ads[i]
		if a.batch != nil || a.op.Err == nil { // a lane or the coordinator took it
			queued++
		}
		if a.op.Err == nil {
			jj := toJobJSON(a.op.Status)
			results[i].jobJSON = &jj
			continue
		}
		results[i].Error = a.op.Err.Error()
		if sh, ok := a.op.Err.(shed); ok {
			retryAfter = max(retryAfter, int(sh))
		} else if isClosed(a.op.Err) && !errors.Is(closedErr, ingest.ErrClosed) {
			closedErr = a.op.Err // a closed lane words the answer over the coordinator
		}
	}
	switch {
	case queued == 0 && retryAfter >= 0:
		writeFailure(w, shed(retryAfter))
	case queued == 0 && closedErr != nil:
		writeFailure(w, closedErr)
	default:
		if retryAfter >= 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		writeBatchResults(w, results)
	}
}

// statusError is a failure that names its own HTTP status: a job the server
// will not admit as asked (400) or does not know (404).
type statusError struct {
	code int
	error
}

// shed is a full lane queue's refusal, carrying that lane's Retry-After hint
// in seconds.
type shed int

func (shed) Error() string { return ingest.ErrOverloaded.Error() }

func isClosed(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ingest.ErrClosed)
}

// writeFailure is the one map from a failed write (submit, cancel, fail,
// recover) to its answer: the status a statusError names, 429 with
// Retry-After for a shed, 503 for a closing server, and 409 for every refusal
// by an engine or the gateway (a duplicate ID, a job already finished or
// cancelled, a failure the fabric cannot take).
func writeFailure(w http.ResponseWriter, err error) {
	code := http.StatusConflict
	switch e := err.(type) {
	case statusError:
		code = e.code
	case shed:
		w.Header().Set("Retry-After", strconv.Itoa(int(e)))
		code = http.StatusTooManyRequests
	default:
		if isClosed(err) {
			code = http.StatusServiceUnavailable
		}
	}
	writeError(w, code, "%v", err)
}

// batchResponse is the /v1/jobs:batch response body. Fields are declared in
// wire order, which is the alphabetical order encoding/json gave the map this
// struct replaced (TestBatchResponseGoldenBytes).
type batchResponse struct {
	Accepted int               `json:"accepted"`
	Failed   int               `json:"failed"`
	Results  []batchItemResult `json:"results"`
}

func writeBatchResults(w http.ResponseWriter, results []batchItemResult) {
	accepted := 0
	for i := range results {
		if results[i].Error == "" {
			accepted++
		}
	}
	writeJSON(w, http.StatusAccepted, batchResponse{
		Accepted: accepted,
		Failed:   len(results) - accepted,
		Results:  results,
	})
}

func jobID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job id")
		return
	}
	li, ok := s.owner.load(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %d", id)
		return
	}
	if li == crossOwner {
		st, err := s.cross.status(id)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, toJobJSON(st))
		return
	}
	l := s.lanes[li]
	// Active jobs are indexed in the published snapshot; terminal and
	// unknown IDs fall back to a point lookup on the engine goroutine.
	if st, ok := l.pub.Load().Jobs[id]; ok {
		writeJSON(w, http.StatusOK, toJobJSON(st))
		return
	}
	var st engine.JobStatus
	if err := l.do(func(e *engine.Engine) { st, ok = e.Status(id) }); err != nil {
		writeFailure(w, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %d", id)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(st))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job id")
		return
	}
	// A wide job is withdrawn by the coordinator, any other through the
	// owning lane's queue.
	li, ok := s.owner.load(id)
	var st engine.JobStatus
	switch {
	case !ok:
		err = errUnknownJob(id)
	case li == crossOwner:
		st, err = s.cross.cancel(id)
	default:
		op := &ingest.Op{Kind: ingest.Cancel, ID: id, EnqueuedAt: time.Now()}
		var batch *ingest.Batch
		if batch, err = s.lanes[li].enqueue(op); err == nil {
			batch.Wait()
			st, err = op.Status, op.Err
			if !op.Known {
				err = errUnknownJob(id)
			}
		}
	}
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(st))
}

// errUnknownJob is the 404 about a job ID nobody knows.
func errUnknownJob(id int64) error {
	return statusError{http.StatusNotFound, fmt.Errorf("unknown job %d", id)}
}

// snapshotMeta are the staleness-observability fields every snapshot-served
// response carries: which publication answered, at what fabric version,
// published when.
func snapshotMeta(v *snapshot.View) (uint64, uint64, string) {
	return v.Seq, v.StateVersion, v.PublishedAt.UTC().Format(time.RFC3339Nano)
}

func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	v := s.view()
	jobs := make([]jobJSON, 0, len(v.Snap.Queue))
	for _, st := range v.Snap.Queue {
		jobs = append(jobs, toJobJSON(st))
	}
	seq, version, published := snapshotMeta(v)
	writeJSON(w, http.StatusOK, map[string]any{
		"now":           v.Snap.Now,
		"depth":         v.Snap.QueueDepth,
		"jobs":          jobs,
		"snapshot_seq":  seq,
		"state_version": version,
		"published_at":  published,
	})
}

// countsJSON is the wire form of the engine's job counters.
func countsJSON(c engine.Counts) map[string]int64 {
	return map[string]int64{
		"submitted": c.Submitted,
		"started":   c.Started,
		"completed": c.Completed,
		"rejected":  c.Rejected,
		"cancelled": c.Cancelled,
		"requeued":  c.Requeued,
		"killed":    c.Killed,
		"shrunk":    c.Shrunk,
		"grown":     c.Grown,
		"preempted": c.Preempted,
	}
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	v := s.view()
	tree := s.cfg.Alloc.Tree()
	seq, version, published := snapshotMeta(v)
	writeJSON(w, http.StatusOK, map[string]any{
		"policy":       s.cfg.Alloc.Name(),
		"clock":        s.clock.name(),
		"shards":       len(s.lanes),
		"radix":        tree.Radix,
		"nodes":        v.Snap.TotalNodes,
		"used_nodes":   v.Snap.UsedNodes,
		"free_nodes":   v.Snap.FreeNodes,
		"queue_depth":  v.Snap.QueueDepth,
		"running_jobs": v.Snap.RunningJobs,
		"now":          v.Snap.Now,
		"counts":       countsJSON(v.Snap.Counts),
		"degraded":     failedResources(v) > 0,
		"failed": map[string]int{
			"nodes":    v.Snap.FailedNodes,
			"links":    v.Snap.FailedLinks,
			"switches": v.Snap.FailedSwitches,
		},
		"utilization": map[string]float64{
			"instant": float64(v.Snap.UsedNodes) / float64(v.Snap.TotalNodes),
			"to_now":  v.UtilNow,
			"steady":  v.UtilSteady,
		},
		"snapshot_seq":  seq,
		"state_version": version,
		"published_at":  published,
	})
}
