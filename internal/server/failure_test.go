package server

// HTTP surface of the failure model: POST /v1/fail and /v1/recover, the
// degraded /healthz body, and the jigsawd_failed_* / jobs_requeued metrics.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func postFailure(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, v
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestFailRecoverEndpoints(t *testing.T) {
	// A frozen wall clock keeps the submitted job running for the whole test
	// (virtual mode would fast-forward it to completion between requests).
	_, hs := newTestServer(t, Config{nowFunc: func() float64 { return 0 }})

	// Healthy daemon: "ok".
	if code, body := getText(t, hs.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz %d %q", code, body)
	}

	// A running job on leaf 0 is requeued when the leaf switch fails.
	if resp, _ := postJob(t, hs.URL, `{"size":2,"runtime":1e6}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	resp, rep := postFailure(t, hs.URL+"/v1/fail", `{"kind":"leaf-switch","leaf":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail status %d: %v", resp.StatusCode, rep)
	}
	if rep["requeued"].(float64) != 1 || rep["killed"].(float64) != 0 {
		t.Fatalf("fail report %v", rep)
	}

	// Degraded daemon: /healthz says so, /v1/cluster counts it, metrics gauge
	// the failed resources.
	if code, body := getText(t, hs.URL+"/healthz"); code != http.StatusOK || body != "degraded\n" {
		t.Fatalf("degraded healthz %d %q", code, body)
	}
	var cl struct {
		Degraded bool           `json:"degraded"`
		Failed   map[string]int `json:"failed"`
	}
	if code := getJSON(t, hs.URL+"/v1/cluster", &cl); code != http.StatusOK {
		t.Fatalf("cluster status %d", code)
	}
	// Radix-4 leaf switch: 2 nodes and 2 uplinks down.
	if !cl.Degraded || cl.Failed["nodes"] != 2 || cl.Failed["links"] != 2 || cl.Failed["switches"] != 1 {
		t.Fatalf("cluster failure state %+v", cl)
	}
	_, metricsBody := getText(t, hs.URL+"/metrics")
	for _, want := range []string{
		"jigsawd_failed_nodes 2",
		"jigsawd_failed_links 2",
		"jigsawd_failed_switches 1",
		"jigsawd_jobs_requeued_total 1",
		"jigsawd_jobs_killed_total 0",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Duplicate failure conflicts; recovery restores a clean bill of health.
	if resp, _ := postFailure(t, hs.URL+"/v1/fail", `{"kind":"leaf-switch","leaf":0}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate fail status %d", resp.StatusCode)
	}
	resp, rec := postFailure(t, hs.URL+"/v1/recover", `{"kind":"leaf-switch","leaf":0}`)
	if resp.StatusCode != http.StatusOK || rec["degraded"].(bool) {
		t.Fatalf("recover %d %v", resp.StatusCode, rec)
	}
	if code, body := getText(t, hs.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz after recovery %d %q", code, body)
	}
	if resp, _ := postFailure(t, hs.URL+"/v1/recover", `{"kind":"leaf-switch","leaf":0}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double recover status %d", resp.StatusCode)
	}
}

func TestFailEndpointRejectsBadBodies(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})
	for _, body := range []string{
		`{"kind":"volcano"}`,        // unknown kind
		`{"kind":"node","node":99}`, // out of range on a 16-node tree
		`{"nonsense":true}`,         // unknown field
		`{`,                         // malformed JSON
	} {
		resp, err := http.Post(hs.URL+"/v1/fail", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("body %s accepted", body)
		}
	}
}
