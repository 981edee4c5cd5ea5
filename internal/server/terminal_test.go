package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// The terminal-ID contract: what the daemon answers about a job that has
// finished, in each of the six ways a job can finish, byte for byte. The
// golden answers were recorded from the commit before finished jobs moved out
// of Engine.jobs into the terminal ledger (GOLDEN_REGEN=1 prints them), so
// the table proves the move changed no answer.

// do sends one request and returns "<status> <body>".
func do(t *testing.T, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSpace(string(b)))
}

// inOneDrain holds lane l's engine goroutine, lets each request in turn reach
// the lane's ingest queue, and releases the lane, so the requests are applied
// back to back in one drain with no event delivered in between.
func inOneDrain(t *testing.T, l *lane, reqs ...func()) {
	t.Helper()
	_, release, err := l.park()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() { defer wg.Done(); req() }()
		for deadline := time.Now().Add(10 * time.Second); l.batcher.Len() <= i; {
			if time.Now().After(deadline) {
				release()
				t.Fatalf("request %d never reached the ingest queue", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	release()
	wg.Wait()
}

func TestTerminalIDContract(t *testing.T) {
	regen := os.Getenv("GOLDEN_REGEN") != ""
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Every explicit ID is a multiple of 4 and no job is wider than a
			// cell, so with 4 shards they all hash to lane 0.
			var mu sync.Mutex
			now := 5.0
			setNow := func(v float64) { mu.Lock(); now = v; mu.Unlock() }
			wall, hs := newTestServer(t, Config{
				Alloc:     core.NewAllocator(topology.MustNew(8)),
				Shards:    shards,
				Elastic:   true,
				OnFailure: engine.FailKill,
				nowFunc:   func() float64 { mu.Lock(); defer mu.Unlock(); return now },
			})
			whole := wall.maxCell // fills lane 0's cell
			submit := func(id int64, size int, runtime float64, extra string) string {
				return do(t, "POST", hs.URL+"/v1/jobs",
					fmt.Sprintf(`{"id":%d,"size":%d,"runtime":%g%s}`, id, size, runtime, extra))
			}
			mustContain := func(got, want string) {
				t.Helper()
				if !strings.Contains(got, want) {
					t.Fatalf("setup step answered %s, want it to contain %s", got, want)
				}
			}

			mustContain(submit(100, whole, 1000, ""), `"state":"running"`)
			mustContain(submit(104, whole, 10, ""), `"state":"queued"`)
			setNow(7)
			mustContain(do(t, "DELETE", hs.URL+"/v1/jobs/104", ""), `"state":"cancelled"`)
			setNow(9)
			mustContain(do(t, "DELETE", hs.URL+"/v1/jobs/100", ""), `"state":"cancelled"`)
			mustContain(submit(108, 4, 10, `,"deadline":1`), `"state":"rejected"`)
			setNow(11)
			mustContain(submit(112, whole, 50, ""), `"state":"running"`)
			mustContain(do(t, "POST", hs.URL+"/v1/fail", `{"kind":"node","node":0}`), `"killed":1`)
			mustContain(do(t, "POST", hs.URL+"/v1/recover", `{"kind":"node","node":0}`), `200 `)
			mustContain(submit(116, 4, 10, ""), `"state":"running"`)
			setNow(30)
			// Wake the lane to the new time: the closure changes nothing, the
			// completion of 116 that time delivers is what gets published.
			if err := wall.lanes[0].do(func(*engine.Engine) {}); err != nil {
				t.Fatal(err)
			}

			// Cancel-before-arrival needs a clock that honours arrivals.
			virt, vhs := newTestServer(t, Config{
				Alloc:        core.NewAllocator(topology.MustNew(8)),
				Shards:       shards,
				VirtualClock: true,
			})
			inOneDrain(t, virt.lanes[0],
				func() {
					mustContain(do(t, "POST", vhs.URL+"/v1/jobs", `{"id":120,"size":4,"runtime":10,"arrival":500}`), `"state":"queued"`)
				},
				func() { mustContain(do(t, "DELETE", vhs.URL+"/v1/jobs/120", ""), `"state":"cancelled"`) },
			)
			// A later job carries the clock past 120's stale arrival event.
			mustContain(do(t, "POST", vhs.URL+"/v1/jobs", `{"id":124,"size":4,"runtime":10,"arrival":600}`), `202 `)
			pollJob(t, vhs.URL, 124, "completed")

			for _, row := range []struct {
				name string
				base string
				id   int64
			}{
				{"completed", hs.URL, 116},
				{"cancelled-while-queued", hs.URL, 104},
				{"cancelled-while-running", hs.URL, 100},
				{"cancelled-before-arrival", vhs.URL, 120},
				{"rejected", hs.URL, 108},
				{"killed", hs.URL, 112},
				{"unknown", hs.URL, 4000},
			} {
				job := fmt.Sprintf("%s/v1/jobs/%d", row.base, row.id)
				got := map[string]string{
					"GET":    do(t, "GET", job, ""),
					"DELETE": do(t, "DELETE", job, ""),
				}
				if row.name != "unknown" {
					got["resubmit"] = do(t, "POST", row.base+"/v1/jobs", fmt.Sprintf(`{"id":%d,"size":1,"runtime":1}`, row.id))
					got["GET again"] = do(t, "GET", job, "") // neither refusal touched the record
				}
				for _, step := range []string{"GET", "DELETE", "resubmit", "GET again"} {
					answer, asked := got[step]
					if !asked {
						continue
					}
					key := row.name + "/" + step
					want := strings.ReplaceAll(terminalGolden[key], "WHOLE", strconv.Itoa(whole))
					if regen {
						fmt.Printf("\t%q: %q,\n", key, answer)
					} else if answer != want {
						t.Errorf("%s\n got  %s\n want %s", key, answer, want)
					}
				}
			}
		})
	}
}

// terminalGolden holds the answers of both shard counts: they differ only in
// the size of a cell-filling job, written WHOLE here.
var terminalGolden = map[string]string{
	"completed/GET":                      `200 {"id":116,"size":4,"runtime":10,"eff_runtime":10,"arrival":11,"state":"completed","start":11,"end":21}`,
	"completed/DELETE":                   `409 {"error":"engine: job 116 already completed"}`,
	"completed/resubmit":                 `409 {"error":"engine: duplicate job id 116"}`,
	"completed/GET again":                `200 {"id":116,"size":4,"runtime":10,"eff_runtime":10,"arrival":11,"state":"completed","start":11,"end":21}`,
	"cancelled-while-queued/GET":         `200 {"id":104,"size":WHOLE,"runtime":10,"eff_runtime":10,"arrival":5,"state":"cancelled","start":0,"end":7}`,
	"cancelled-while-queued/DELETE":      `409 {"error":"engine: job 104 already cancelled"}`,
	"cancelled-while-queued/resubmit":    `409 {"error":"engine: duplicate job id 104"}`,
	"cancelled-while-queued/GET again":   `200 {"id":104,"size":WHOLE,"runtime":10,"eff_runtime":10,"arrival":5,"state":"cancelled","start":0,"end":7}`,
	"cancelled-while-running/GET":        `200 {"id":100,"size":WHOLE,"runtime":1000,"eff_runtime":1000,"arrival":5,"state":"cancelled","start":5,"end":9}`,
	"cancelled-while-running/DELETE":     `409 {"error":"engine: job 100 already cancelled"}`,
	"cancelled-while-running/resubmit":   `409 {"error":"engine: duplicate job id 100"}`,
	"cancelled-while-running/GET again":  `200 {"id":100,"size":WHOLE,"runtime":1000,"eff_runtime":1000,"arrival":5,"state":"cancelled","start":5,"end":9}`,
	"cancelled-before-arrival/GET":       `200 {"id":120,"size":4,"runtime":10,"eff_runtime":10,"arrival":500,"state":"cancelled","start":0,"end":0}`,
	"cancelled-before-arrival/DELETE":    `409 {"error":"engine: job 120 already cancelled"}`,
	"cancelled-before-arrival/resubmit":  `409 {"error":"engine: duplicate job id 120"}`,
	"cancelled-before-arrival/GET again": `200 {"id":120,"size":4,"runtime":10,"eff_runtime":10,"arrival":500,"state":"cancelled","start":0,"end":0}`,
	"rejected/GET":                       `200 {"id":108,"size":4,"runtime":10,"eff_runtime":10,"arrival":9,"state":"rejected","start":0,"end":9,"deadline":1,"verdict":"rejected"}`,
	"rejected/DELETE":                    `409 {"error":"engine: job 108 already rejected"}`,
	"rejected/resubmit":                  `409 {"error":"engine: duplicate job id 108"}`,
	"rejected/GET again":                 `200 {"id":108,"size":4,"runtime":10,"eff_runtime":10,"arrival":9,"state":"rejected","start":0,"end":9,"deadline":1,"verdict":"rejected"}`,
	"killed/GET":                         `200 {"id":112,"size":WHOLE,"runtime":50,"eff_runtime":50,"arrival":11,"state":"killed","start":11,"end":11}`,
	"killed/DELETE":                      `409 {"error":"engine: job 112 already killed"}`,
	"killed/resubmit":                    `409 {"error":"engine: duplicate job id 112"}`,
	"killed/GET again":                   `200 {"id":112,"size":WHOLE,"runtime":50,"eff_runtime":50,"arrival":11,"state":"killed","start":11,"end":11}`,
	"unknown/GET":                        `404 {"error":"unknown job 4000"}`,
	"unknown/DELETE":                     `404 {"error":"unknown job 4000"}`,
}
