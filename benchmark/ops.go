package main

// Seeded op streams for the three HTTP workloads. Every request body is built
// here, before any clock starts; the daemon only ever sees the generated
// requests — never the seed or the workload name.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
)

type opKind uint8

const (
	opBatch      opKind = iota // POST /v1/jobs:batch, narrow jobs
	opSubmit                   // POST /v1/jobs, one narrow job
	opSubmitWide               // POST /v1/jobs, one cross-shard job
	opCancel                   // DELETE /v1/jobs/{id}
	opGetJob                   // GET /v1/jobs/{id}
	opGetQueue                 // GET /v1/queue
	opGetCluster               // GET /v1/cluster
	opGetShards                // GET /v1/shards
)

// isRead reports whether the kind is a GET; everything else is a write.
func (k opKind) isRead() bool { return k >= opGetJob }

// expectState is what a job-status answer must say for the op to count as
// correct.
type expectState uint8

const (
	expectAny       expectState = iota // a cancel races this read: any known state
	expectActive                       // queued or running
	expectCancelled                    // an acknowledged cancel must read back
)

// op is one generated request and what the answer is checked against.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	jobs   int   // jobs the request submits
	id     int64 // explicit job id (busy-cluster), else 0
	expect expectState
}

// Full-size operation counts, per repeat. A run at scale s executes s times
// these (see scaled); -seconds picks the scale from workload.fullSeconds.
const (
	batchJobs          = 16
	frontDoorBatches   = 40000
	frontDoorReadEvery = 5 // one GET /v1/cluster after every 5th batch
	narrowMaxSize      = 32
	virtualRuntime     = 60

	busyPreload      = 2000 // set-up, not scaled
	busyPreloadBatch = 100
	busyPhaseA       = 15000
	busyPhaseB       = 3000
	busyOpenRate     = 600 // ops/s, phase B
	busyMeanSize     = 24
	busyMaxSize      = 256
	// busyGap is how many ops must separate a submit from an op that names
	// its id, so with two requests in flight the submit has been answered.
	busyGap = 64

	shardedRequests  = 30000
	shardedReadEvery = 5 // one merged read after every 5th request
	shardedWidePct   = 2
	shardedCellNodes = 256 // radix 16, 4 shards
)

// scaled turns a full-size count into the count at this scale.
func scaled(full int, scale float64) int {
	n := int(float64(full)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// appendJob appends one job's JSON to b; id 0 leaves the id to the daemon.
func appendJob(b []byte, id int64, size int, runtime float64) []byte {
	b = append(b, '{')
	if id != 0 {
		b = strconv.AppendInt(append(b, `"id":`...), id, 10)
		b = append(b, ',')
	}
	b = strconv.AppendInt(append(b, `"size":`...), int64(size), 10)
	b = strconv.AppendFloat(append(b, `,"runtime":`...), runtime, 'g', -1, 64)
	return append(b, '}')
}

// batchOp builds one POST /v1/jobs:batch of n jobs, job(b, i) appending the
// i-th.
func batchOp(n int, job func(b []byte, i int) []byte) op {
	b := append(make([]byte, 0, 16+48*n), `{"jobs":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = job(b, i)
	}
	return op{kind: opBatch, method: "POST", path: "/v1/jobs:batch", body: append(b, "]}"...), jobs: n}
}

func narrowBatch(rng *rand.Rand) op {
	return batchOp(batchJobs, func(b []byte, _ int) []byte {
		return appendJob(b, 0, 1+rng.Intn(narrowMaxSize), virtualRuntime)
	})
}

func getOp(kind opKind, path string) op { return op{kind: kind, method: "GET", path: path} }

// frontDoorOps is the batch-submit stream with a sparse cluster read, so the
// read latency metrics exist on this workload too.
func frontDoorOps(seed int64, scale float64) []op {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(frontDoorBatches, scale)
	ops := make([]op, 0, n+n/frontDoorReadEvery)
	for i := 1; i <= n; i++ {
		ops = append(ops, narrowBatch(rng))
		if i%frontDoorReadEvery == 0 {
			ops = append(ops, getOp(opGetCluster, "/v1/cluster"))
		}
	}
	return ops
}

// shardedWideOps mixes narrow batches with cross-shard jobs and merged reads.
func shardedWideOps(seed int64, scale float64) []op {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(shardedRequests, scale)
	reads := []op{
		getOp(opGetCluster, "/v1/cluster"),
		getOp(opGetQueue, "/v1/queue"),
		getOp(opGetShards, "/v1/shards"),
	}
	ops := make([]op, 0, n+n/shardedReadEvery)
	for i := 1; i <= n; i++ {
		if rng.Intn(100) < shardedWidePct {
			size := shardedCellNodes + 1 + rng.Intn(shardedCellNodes)
			ops = append(ops, op{
				kind: opSubmitWide, method: "POST", path: "/v1/jobs",
				body: appendJob(nil, 0, size, virtualRuntime), jobs: 1,
			})
		} else {
			ops = append(ops, narrowBatch(rng))
		}
		if i%shardedReadEvery == 0 {
			ops = append(ops, reads[(i/shardedReadEvery)%len(reads)])
		}
	}
	return ops
}

// busyJob is the generator's model of one job it has issued.
type busyJob struct {
	submitOp int // index of the submitting op; -busyGap for preloaded jobs
	cancelOp int // index of the cancelling op; -1 while live
	lastGet  int // index of the latest GET naming the job; -1 if none
}

func busySize(rng *rand.Rand) int {
	s := 1 + int(rng.ExpFloat64()*busyMeanSize)
	if s > busyMaxSize {
		s = busyMaxSize
	}
	return s
}

// busyRuntime keeps every job running for the whole benchmark and keeps EASY
// shadow-time comparisons a whole 10^5 s apart, so sub-minute differences in
// wall-clock arrival cannot flip a backfill decision.
func busyRuntime(rng *rand.Rand) float64 { return float64(1+rng.Intn(4)) * 1e5 }

// busyClusterOps returns the preload batches (set-up) and the single op
// stream whose first phaseA ops run closed loop and the rest open loop. Job
// ids are explicit, so the stream is fixed before the daemon answers.
func busyClusterOps(seed int64, scale float64) (preload, ops []op, phaseA int) {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]busyJob, 1, busyPreload+1) // ids start at 1
	for lo := 1; lo <= busyPreload; lo += busyPreloadBatch {
		preload = append(preload, batchOp(min(busyPreloadBatch, busyPreload-lo+1), func(b []byte, i int) []byte {
			jobs = append(jobs, busyJob{submitOp: -busyGap, cancelOp: -1, lastGet: -1})
			return appendJob(b, int64(lo+i), busySize(rng), busyRuntime(rng))
		}))
	}

	phaseA = scaled(busyPhaseA, scale)
	n := phaseA + scaled(busyPhaseB, scale)
	ops = make([]op, 0, n)
	oldest := 1
	cancel := func(k int, id int) {
		jobs[id].cancelOp = k
		// A GET still in flight beside this cancel may see either state.
		if g := jobs[id].lastGet; g >= 0 && g > k-busyGap {
			ops[g].expect = expectAny
		}
		ops = append(ops, op{kind: opCancel, method: "DELETE", path: "/v1/jobs/" + strconv.Itoa(id), id: int64(id)})
	}
	for k := 0; k < n; k++ {
		// settled is the highest id whose submit is at least busyGap ops old.
		settled := len(jobs) - 1
		for settled > 0 && jobs[settled].submitOp > k-busyGap {
			settled--
		}
		r := rng.Intn(100)
		switch {
		case r < 30:
			id := len(jobs)
			jobs = append(jobs, busyJob{submitOp: k, cancelOp: -1, lastGet: -1})
			ops = append(ops, op{
				kind: opSubmit, method: "POST", path: "/v1/jobs",
				body: appendJob(nil, int64(id), busySize(rng), busyRuntime(rng)),
				jobs: 1, id: int64(id), expect: expectActive,
			})
		case r < 50:
			for oldest <= settled && jobs[oldest].cancelOp >= 0 {
				oldest++
			}
			if oldest > settled {
				ops = append(ops, getOp(opGetCluster, "/v1/cluster"))
				continue
			}
			cancel(k, oldest)
		case r < 60:
			id := settled
			for id >= oldest && jobs[id].cancelOp >= 0 {
				id--
			}
			if id < oldest {
				ops = append(ops, getOp(opGetCluster, "/v1/cluster"))
				continue
			}
			cancel(k, id)
		case r < 85:
			id := 1 + rng.Intn(settled)
			o := getOp(opGetJob, "/v1/jobs/"+strconv.Itoa(id))
			o.id = int64(id)
			switch c := jobs[id].cancelOp; {
			case c < 0:
				o.expect = expectActive
			case c <= k-busyGap:
				o.expect = expectCancelled
			}
			jobs[id].lastGet = k
			ops = append(ops, o)
		case r < 88:
			ops = append(ops, getOp(opGetQueue, "/v1/queue"))
		default:
			ops = append(ops, getOp(opGetCluster, "/v1/cluster"))
		}
	}
	return preload, ops, phaseA
}

// streamHash is the SHA-256 of an op stream: method, path and body of every
// op in order. Equal seeds give equal hashes.
func streamHash(streams ...[]op) string {
	h := sha256.New()
	for _, ops := range streams {
		for i := range ops {
			fmt.Fprintf(h, "%s %s %d\n", ops[i].method, ops[i].path, len(ops[i].body))
			h.Write(ops[i].body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
