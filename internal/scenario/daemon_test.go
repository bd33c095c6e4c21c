package scenario_test

// The daemon end of decode-once: a submitted manifest is decoded by
// Parse, and the submit handler's expansion and the job's run reuse
// that decode.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/serve"
	"accesys/internal/sweep"
)

func TestServeJobDecodesOnce(t *testing.T) {
	decodes := scenario.CountDecodes(t)
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Cache: cache, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	manifest := `{"name":"once","base":"pcie8gb","workload":{"kind":"gemm","n":16},
		"defaults":[{"axis":"decode_probe","value":0}],
		"axes":[{"axis":"lanes","values":[4,8]}]}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st serve.JobStatus
		resp, err := http.Get(ts.URL + "/sweeps/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job ended %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/sweeps/" + sub.ID + "/rows?format=text")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := decodes.Load(); got != 1 {
		t.Fatalf("one job decoded its manifest %d times, want 1", got)
	}
}
