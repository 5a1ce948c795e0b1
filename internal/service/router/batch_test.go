package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/service"
)

func postBatch(t *testing.T, base string, reqs []service.JobRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestBatchByteIdentity pins the /batch contract: every item's body is
// byte-identical to the body a direct /solve of that request returns,
// invalid items fail alone with a 400 without sinking the batch, and
// item order is preserved.
func TestBatchByteIdentity(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	_, r2 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL, r2.URL)

	reqs := []service.JobRequest{
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 3"},
		{Scenario: "not a scenario"},
		{Scenario: "-grid 7 -ranks 3 -scheme CR-M -ckpt 4 -seed 9 -faults SNF@5:r1", Verdict: true},
	}
	code, body := postBatch(t, rts.URL, reqs)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var items []struct {
		Code int             `json:"code"`
		Body json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatalf("batch response does not parse: %v: %s", err, body)
	}
	if len(items) != len(reqs) {
		t.Fatalf("%d items for %d requests", len(items), len(reqs))
	}
	if items[1].Code != http.StatusBadRequest {
		t.Fatalf("invalid item code = %d, want 400", items[1].Code)
	}
	for _, i := range []int{0, 2} {
		if items[i].Code != http.StatusOK {
			t.Fatalf("item %d code = %d: %s", i, items[i].Code, items[i].Body)
		}
		soloCode, solo, _ := post(t, rts.URL, reqs[i])
		if soloCode != http.StatusOK {
			t.Fatalf("solo item %d status %d", i, soloCode)
		}
		if !bytes.Equal([]byte(items[i].Body), solo) {
			t.Fatalf("item %d batch body differs from direct /solve\nbatch: %s\nsolo:  %s", i, items[i].Body, solo)
		}
	}
}

// TestBatchCampaignCounters pins the campaign progress surface: verdict
// jobs routed through /batch move campaign_jobs_total and
// campaign_verdicts_total on /metrics, and deliberately broken verdicts
// move campaign_fail_total.
func TestBatchCampaignCounters(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL)

	reqs := []service.JobRequest{
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 3", Verdict: true},
		{Scenario: "-grid 7 -ranks 3 -scheme CR-M -ckpt 4 -seed 9 -faults SNF@5:r1",
			Verdict: true, BreakInvariant: chaos.InvConvergence},
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 4"}, // not a verdict job
	}
	code, body := postBatch(t, rts.URL, reqs)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := map[string]string{
		"resilience_router_campaign_jobs_total":     "2",
		"resilience_router_campaign_verdicts_total": "2",
		"resilience_router_campaign_fail_total":     "1",
	}
	for name, val := range want {
		found := false
		for _, line := range strings.Split(string(metrics), "\n") {
			if line == name+" "+val {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metrics missing %q = %s:\n%s", name, val, metrics)
		}
	}
}

// TestBatchRejectsMalformed pins batch-level admission errors.
func TestBatchRejectsMalformed(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 1})
	_, rts := boot(t, Config{}, r1.URL)

	if code, _ := postBatch(t, rts.URL, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", code)
	}
	resp, err := http.Post(rts.URL+"/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(rts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status = %d, want 405", resp.StatusCode)
	}
	big := make([]service.JobRequest, maxBatchItems+1)
	for i := range big {
		big[i] = service.JobRequest{SleepMs: 1}
	}
	if code, _ := postBatch(t, rts.URL, big); code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d, want 400", code)
	}
}

// TestBatchRejectsOversizeBody: a /batch body over maxBatchBytes is
// refused with 413, while a full batch of campaign verdict jobs fits
// well inside the limit.
func TestBatchRejectsOversizeBody(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 1})
	_, rts := boot(t, Config{}, r1.URL)

	full := make([]service.JobRequest, maxBatchItems)
	for i := range full {
		s := chaos.ScenarioAt(chaos.Options{Seed: 1, MaxFaults: 6}, i)
		full[i] = service.JobRequest{Scenario: s.Args(), Verdict: true}
	}
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxBatchBytes/8 {
		t.Fatalf("full campaign batch is %d bytes, too close to the %d-byte limit", len(body), maxBatchBytes)
	}

	huge := `[{"sleep_ms":1,"scenario":"` + strings.Repeat("x", maxBatchBytes) + `"}]`
	resp, err := http.Post(rts.URL+"/batch", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /batch status = %d, want 413", resp.StatusCode)
	}
}
