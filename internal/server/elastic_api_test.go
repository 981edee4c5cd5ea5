package server

// HTTP surface of the malleability layer: elastic submit fields and their
// admission checks, the deadline verdict on the submit response, the shrink
// fail policy end to end (POST /v1/fail on a running malleable job), and the
// shrunk/grown/preempted counters in /v1/cluster and /metrics.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestElasticFieldsRequireElasticDaemon(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	for _, body := range []string{
		`{"size":4,"runtime":10,"min_nodes":2}`,
		`{"size":4,"runtime":10,"max_nodes":8}`,
		`{"size":4,"runtime":10,"priority":1}`,
		`{"size":4,"runtime":10,"deadline":100}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400 on a rigid daemon", body, resp.StatusCode)
		}
	}
	// The all-zero elastic fields are the rigid defaults and stay accepted.
	if resp, _ := postJob(t, hs.URL, `{"size":4,"runtime":10,"min_nodes":0,"max_nodes":0,"priority":0,"deadline":0}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rigid submit with explicit zero elastic fields: status %d", resp.StatusCode)
	}
}

func TestElasticSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true, Elastic: true})
	for _, tc := range []struct {
		body, wantErr string
	}{
		{`{"size":4,"runtime":10,"min_nodes":-1}`, "non-negative"},
		{`{"size":4,"runtime":10,"min_nodes":5}`, "min_nodes 5 exceeds size 4"},
		{`{"size":4,"runtime":10,"max_nodes":3}`, "max_nodes 3 below size 4"},
		{`{"size":4,"runtime":10,"max_nodes":17}`, "max_nodes 17 exceeds cluster size 16"},
		{`{"size":4,"runtime":10,"priority":-1}`, "priority must be non-negative"},
		{`{"size":4,"runtime":10,"deadline":-5}`, "deadline must be non-negative"},
	} {
		code, errBody := postForError(t, hs.URL+"/v1/jobs", tc.body)
		if code != http.StatusBadRequest || !strings.Contains(errBody, tc.wantErr) {
			t.Errorf("body %s: got %d %q, want 400 containing %q", tc.body, code, errBody, tc.wantErr)
		}
	}
}

// postForError posts a body expected to be refused and returns the status
// and the error text.
func postForError(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decode error body: %v", err)
		}
	}
	return resp.StatusCode, e.Error
}

func TestElasticSubmitEchoesFieldsAndVerdict(t *testing.T) {
	// Frozen wall clock: the blocker stays running so the deadline estimates
	// below are computed against a full machine.
	_, hs := newTestServer(t, Config{Elastic: true, nowFunc: func() float64 { return 0 }})

	// Blocker: the whole 16-node machine until t=100.
	if resp, _ := postJob(t, hs.URL, `{"size":16,"runtime":100}`); resp.StatusCode != http.StatusAccepted {
		t.Fatal("blocker not accepted")
	}

	// Elastic job with slack: starts at 100, ends at 110, deadline 200.
	resp, j := postJob(t, hs.URL, `{"size":4,"runtime":10,"min_nodes":2,"max_nodes":8,"priority":0,"deadline":200}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("elastic submit status %d", resp.StatusCode)
	}
	if j.MinNodes != 2 || j.MaxNodes != 8 || j.Deadline != 200 {
		t.Fatalf("elastic fields not echoed: %+v", j)
	}
	if j.Verdict != "accepted" {
		t.Fatalf("verdict %q, want accepted", j.Verdict)
	}

	// Estimated completion 110 > deadline 50, but arrival+runtime=10 < 50 so
	// the job is admitted at risk rather than rejected.
	if _, j = postJob(t, hs.URL, `{"size":4,"runtime":10,"deadline":50}`); j.Verdict != "accepted-at-risk" {
		t.Fatalf("verdict %q, want accepted-at-risk", j.Verdict)
	}

	// Deadline before the job could finish even starting now: rejected at
	// submit time, still a 202 (the submission settled, as "rejected").
	resp, j = postJob(t, hs.URL, `{"size":4,"runtime":10,"deadline":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("impossible-deadline submit status %d", resp.StatusCode)
	}
	if j.Verdict != "rejected" || j.State != "rejected" {
		t.Fatalf("impossible deadline: verdict %q state %q, want rejected/rejected", j.Verdict, j.State)
	}

	// A rigid job reports no verdict.
	if _, j = postJob(t, hs.URL, `{"size":2,"runtime":10}`); j.Verdict != "" {
		t.Fatalf("rigid job verdict %q, want empty", j.Verdict)
	}
}

func TestShrinkPolicyOverAPI(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Elastic:   true,
		OnFailure: engine.FailShrink,
		nowFunc:   func() float64 { return 0 },
	})

	// A malleable whole-machine job (16 nodes, MinNodes 2).
	resp, j := postJob(t, hs.URL, `{"size":16,"runtime":1000,"min_nodes":2}`)
	if resp.StatusCode != http.StatusAccepted || j.State != "running" || j.Size != 16 {
		t.Fatalf("submit: %d %+v", resp.StatusCode, j)
	}

	// Kill leaf 0 (2 nodes on the radix-4 tree): the job shrinks onto the
	// surviving 14 nodes instead of being requeued.
	fresp, rep := postFailure(t, hs.URL+"/v1/fail", `{"kind":"leaf-switch","leaf":0}`)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fail status %d: %v", fresp.StatusCode, rep)
	}
	if rep["shrunk"].(float64) != 1 || rep["requeued"].(float64) != 0 || rep["killed"].(float64) != 0 {
		t.Fatalf("fail report %v, want 1 shrunk", rep)
	}

	var got jobJSON
	if code := getJSON(t, hs.URL+"/v1/jobs/1", &got); code != http.StatusOK {
		t.Fatalf("get job status %d", code)
	}
	if got.State != "running" || got.Size != 14 {
		t.Fatalf("after shrink: %+v, want running at 14 nodes", got)
	}
	// Work conservation: 1000s of work on 16 nodes is 1000*16/14 on 14.
	if wantEnd := 1000 * 16.0 / 14.0; got.End < wantEnd-1e-9 || got.End > wantEnd+1e-9 {
		t.Fatalf("shrunk End = %v, want %v", got.End, wantEnd)
	}

	var cl clusterJSON
	if code := getJSON(t, hs.URL+"/v1/cluster", &cl); code != http.StatusOK {
		t.Fatalf("cluster status %d", code)
	}
	if cl.Counts["shrunk"] != 1 {
		t.Fatalf("cluster counts %v, want shrunk=1", cl.Counts)
	}
	for _, k := range []string{"shrunk", "grown", "preempted"} {
		if _, ok := cl.Counts[k]; !ok {
			t.Errorf("cluster counts missing %q", k)
		}
	}

	_, metricsBody := getText(t, hs.URL+"/metrics")
	for _, want := range []string{
		"jigsawd_jobs_shrunk_total 1",
		"jigsawd_jobs_grown_total 0",
		"jigsawd_jobs_preempted_total 0",
		"jigsawd_jobs_requeued_total 0",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestElasticBatchSubmit(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true, Elastic: true})
	body := `{"jobs":[
		{"size":4,"runtime":10,"min_nodes":2,"max_nodes":8},
		{"size":2,"runtime":5},
		{"size":4,"runtime":10,"min_nodes":9}
	]}`
	resp, err := http.Post(hs.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int `json:"accepted"`
		Failed   int `json:"failed"`
		Results  []struct {
			jobJSON
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if out.Accepted != 2 || out.Failed != 1 || len(out.Results) != 3 {
		t.Fatalf("batch summary accepted=%d failed=%d results=%d, want 2/1/3",
			out.Accepted, out.Failed, len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].MinNodes != 2 {
		t.Errorf("elastic batch element: %+v", out.Results[0])
	}
	if out.Results[1].Error != "" {
		t.Errorf("rigid batch element rejected: %+v", out.Results[1])
	}
	if !strings.Contains(out.Results[2].Error, "min_nodes 9 exceeds size 4") {
		t.Errorf("invalid batch element error %q", out.Results[2].Error)
	}
	waitDrained(t, hs.URL)
}
