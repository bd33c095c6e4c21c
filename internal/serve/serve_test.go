package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accesys/internal/fleet"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// miniManifest is a two-point GEMM matrix that simulates in
// milliseconds.
const miniManifest = `{
  "name": "mini",
  "title": "mini sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "lanes", "values": [4, 8]}]
}`

// overlapManifest shares both of miniManifest's points (same scenario
// name, same axes prefix) and adds a third.
const overlapManifest = `{
  "name": "mini",
  "title": "mini sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "lanes", "values": [4, 8, 16]}]
}`

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cache: cache, Jobs: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, ts
}

func submitManifest(t *testing.T, ts *httptest.Server, manifest, client string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/sweeps", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Accesys-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, body, resp.Header
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/sweeps/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if st.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

func TestSubmitPollRowsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, body, _ := submitManifest(t, ts, miniManifest, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, body)
	}
	id := body["id"].(string)
	if body["total"].(float64) != 2 {
		t.Fatalf("total = %v, want 2", body["total"])
	}

	st := waitDone(t, ts, id)
	if st.State != stateDone || st.Completed != 2 || st.Cold != 2 {
		t.Fatalf("final status %+v, want done with 2 cold points", st)
	}
	if st.Client != "alice" || st.Scenario != "mini" {
		t.Fatalf("identity fields wrong: %+v", st)
	}
	if st.SubmittedAt == "" || st.StartedAt == "" || st.FinishedAt == "" {
		t.Fatalf("missing timestamps: %+v", st)
	}

	var rows scenario.Result
	if code := getJSON(t, ts.URL+"/sweeps/"+id+"/rows", &rows); code != http.StatusOK {
		t.Fatalf("rows status %d", code)
	}
	if rows.ID != "mini" || len(rows.Rows) != 2 {
		t.Fatalf("rows payload %+v", rows)
	}

	// CSV and text renderings of the same result.
	for format, want := range map[string]string{"csv": "point,exec", "text": "== mini: mini sweep =="} {
		resp, err := http.Get(ts.URL + "/sweeps/" + id + "/rows?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4096)
		n, _ := resp.Body.Read(data)
		resp.Body.Close()
		if !strings.Contains(string(data[:n]), want) {
			t.Fatalf("%s format missing %q:\n%s", format, want, data[:n])
		}
	}

	// A second identical submission serves entirely warm.
	_, body2, _ := submitManifest(t, ts, miniManifest, "alice")
	st2 := waitDone(t, ts, body2["id"].(string))
	if st2.Warm != 2 || st2.Cold != 0 {
		t.Fatalf("repeat submission not warm: %+v", st2)
	}

	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/sweeps", &listing); code != http.StatusOK || len(listing.Jobs) != 2 {
		t.Fatalf("listing = %d jobs (status %d), want 2", len(listing.Jobs), code)
	}
	if listing.Jobs[0].ID != id {
		t.Fatalf("listing not in submission order: %+v", listing.Jobs)
	}
}

func TestSubmitRejectsBadManifests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for name, manifest := range map[string]string{
		"not json":     "{nope",
		"unknown axis": `{"name": "x", "workload": {"kind": "gemm", "n": 64}, "axes": [{"axis": "nope", "values": [1]}]}`,
	} {
		if code, body, _ := submitManifest(t, ts, manifest, ""); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %v", name, code, body)
		}
	}
	var errBody map[string]string
	if code := getJSON(t, ts.URL+"/sweeps/nosuch", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown job poll status %d", code)
	}
}

// TestSubmitRejectsExploreStanza pins the explore-manifest fix: the
// daemon used to silently strip the stanza and sweep the full matrix —
// the wrong computation, reported as success. It must refuse up front,
// naming the stanza and pointing at `accesys explore`.
func TestSubmitRejectsExploreStanza(t *testing.T) {
	_, ts := newTestServer(t, nil)
	manifest := `{
	  "name": "mini-explore",
	  "base": "pcie8gb",
	  "workload": {"kind": "gemm", "n": 64},
	  "axes": [{"axis": "lanes", "values": [4, 8]}],
	  "explore": {"strategy": "random", "budget": "4"}
	}`
	code, body, _ := submitManifest(t, ts, manifest, "")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("explore manifest: status %d, body %v", code, body)
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "explore") || !strings.Contains(msg, "accesys explore") {
		t.Fatalf("rejection must name the stanza and the right command: %q", msg)
	}
	// The rejected job must not have entered the registry.
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/sweeps", &listing); code != http.StatusOK || len(listing.Jobs) != 0 {
		t.Fatalf("rejected submission registered a job: %d %+v", code, listing.Jobs)
	}
}

func TestBackpressureAndQuota(t *testing.T) {
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	running := make(chan string, 8)
	testHookRunning = func(j *job) {
		running <- j.id
		<-release
	}
	defer func() { testHookRunning = nil }()

	_, ts := newTestServer(t, func(c *Config) {
		c.Concurrency = 1
		c.QueueLimit = 1
		c.ClientQuota = 1
	})
	// Unpark every held job before the server's Close cleanup waits on
	// the runners — keeps an assertion failure from deadlocking the run.
	t.Cleanup(releaseAll)

	// Job 1 occupies the sole runner; job 2 fills the queue.
	code, b1, _ := submitManifest(t, ts, miniManifest, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", code, b1)
	}
	<-running
	code, b2, _ := submitManifest(t, ts, miniManifest, "bob")
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %v", code, b2)
	}

	// Alice has one unfinished job and quota 1: rejected before the
	// queue is even consulted.
	code, _, hdr := submitManifest(t, ts, miniManifest, "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// A fresh client is under quota but the queue is full: back-pressure.
	code, _, hdr = submitManifest(t, ts, miniManifest, "carol")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("queue-full submit: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// Release job 1: alice's quota frees and job 2 starts, draining the
	// queue, so alice can queue a new job.
	release <- struct{}{}
	<-running // job 2 now running and parked
	code, b3, _ := submitManifest(t, ts, miniManifest, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("alice second job: %d %v", code, b3)
	}

	// Stats reflect the live queue: job 3 waiting behind the parked job 2.
	var stats struct {
		Queue map[string]int `json:"queue"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Queue["limit"] != 1 || stats.Queue["depth"] != 1 {
		t.Fatalf("queue stats %v, want depth 1 of limit 1", stats.Queue)
	}

	// Unpark everything; every accepted job completes.
	releaseAll()
	for _, b := range []map[string]any{b1, b2, b3} {
		if st := waitDone(t, ts, b["id"].(string)); st.State != stateDone {
			t.Fatalf("job %v finished %s: %s", b["id"], st.State, st.Error)
		}
	}
}

// TestConcurrentOverlapDedup submits two overlapping manifests that
// run concurrently and asserts the overlap is simulated exactly once:
// cold counts across both jobs sum to the number of unique points.
func TestConcurrentOverlapDedup(t *testing.T) {
	start := make(chan struct{})
	arrived := make(chan struct{}, 2)
	testHookRunning = func(j *job) {
		// Park both jobs at the starting line so their sweeps overlap.
		arrived <- struct{}{}
		<-start
	}
	defer func() { testHookRunning = nil }()

	_, ts := newTestServer(t, func(c *Config) { c.Concurrency = 2; c.Jobs = 2 })
	_, b1, _ := submitManifest(t, ts, miniManifest, "alice")
	_, b2, _ := submitManifest(t, ts, overlapManifest, "bob")
	<-arrived
	<-arrived
	close(start)

	st1 := waitDone(t, ts, b1["id"].(string))
	st2 := waitDone(t, ts, b2["id"].(string))
	if st1.State != stateDone || st2.State != stateDone {
		t.Fatalf("jobs failed: %+v / %+v", st1, st2)
	}
	const unique = 3 // lanes 4 and 8 shared, 16 only in the superset
	cold := st1.Cold + st2.Cold
	if cold != unique {
		t.Fatalf("cold simulations = %d (%d+%d), want %d: overlap was not deduplicated",
			cold, st1.Cold, st2.Cold, unique)
	}
	if st1.Completed != 2 || st2.Completed != 3 {
		t.Fatalf("completion counts %d/%d, want 2/3", st1.Completed, st2.Completed)
	}
	// Every completion is accounted cold, warm, or shared.
	for _, st := range []JobStatus{st1, st2} {
		if st.Cold+st.Warm+st.Shared != st.Completed {
			t.Fatalf("counter partition broken: %+v", st)
		}
	}
}

// slotProbe stands in for the in-process executor's scenario run: each
// job sweeps as many distinct blocking points as its manifest holds,
// through the options the server built, and the probe counts how many
// simulate at once.
type slotProbe struct {
	running, peak atomic.Int32
	release       chan struct{}
}

func newSlotProbe(t *testing.T) *slotProbe {
	p := &slotProbe{release: make(chan struct{})}
	testHookRun = func(j *job, o scenario.Options) (*scenario.Result, error) {
		points := make([]sweep.Point, j.total)
		for i := range points {
			points[i] = sweep.Point{
				Key:         fmt.Sprintf("%s-%d", j.id, i),
				Fingerprint: sweep.Fingerprint("slot-probe", j.id, i),
				Run: func() sweep.Outcome {
					now := p.running.Add(1)
					for old := p.peak.Load(); now > old && !p.peak.CompareAndSwap(old, now); old = p.peak.Load() {
					}
					<-p.release
					p.running.Add(-1)
					return sweep.Outcome{Dur: 1}
				},
			}
		}
		return &scenario.Result{ID: j.id}, sweep.Failed(o.Sweep(j.id, points))
	}
	t.Cleanup(func() { testHookRun = nil })
	return p
}

// waitRunning polls until want probe points simulate at once.
func (p *slotProbe) waitRunning(t *testing.T, want int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.running.Load() < want {
		if time.Now().After(deadline) {
			close(p.release)
			t.Fatalf("%d points simulating, want %d", p.running.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneJobUsesEverySlot pins the shared budget's first half: with
// Concurrency 2 and Jobs 1 the daemon has two simulation slots, and a
// job running alone simulates on both.
func TestLoneJobUsesEverySlot(t *testing.T) {
	probe := newSlotProbe(t)
	_, ts := newTestServer(t, func(c *Config) { c.Concurrency = 2; c.Jobs = 1 })
	_, body, _ := submitManifest(t, ts, miniManifest, "alice")
	probe.waitRunning(t, 2)
	close(probe.release)
	if st := waitDone(t, ts, body["id"].(string)); st.State != stateDone || st.Cold != 2 {
		t.Fatalf("lone job = %+v, want done with 2 cold points", st)
	}
}

// TestConcurrentJobsShareSlots pins the second half: two running jobs,
// each able to use every slot, never simulate more than Jobs ×
// Concurrency points together.
func TestConcurrentJobsShareSlots(t *testing.T) {
	probe := newSlotProbe(t)
	_, ts := newTestServer(t, func(c *Config) { c.Concurrency = 2; c.Jobs = 1 })
	_, b1, _ := submitManifest(t, ts, overlapManifest, "alice")
	_, b2, _ := submitManifest(t, ts, overlapManifest, "bob")
	probe.waitRunning(t, 2)
	time.Sleep(20 * time.Millisecond) // room for a third to slip in
	close(probe.release)
	for _, b := range []map[string]any{b1, b2} {
		if st := waitDone(t, ts, b["id"].(string)); st.State != stateDone || st.Cold != 3 {
			t.Fatalf("job = %+v, want done with 3 cold points", st)
		}
	}
	if p := probe.peak.Load(); p != 2 {
		t.Fatalf("peak %d simulations at once, want 2 (Jobs × Concurrency)", p)
	}
}

func TestEventsStreamEndsAtTerminal(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, body, _ := submitManifest(t, ts, miniManifest, "")
	id := body["id"].(string)

	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var last JobStatus
	lines := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		lines++
		if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
	}
	if lines == 0 {
		t.Fatal("event stream produced no snapshots")
	}
	if !last.terminal() || last.Completed != 2 {
		t.Fatalf("stream ended before the terminal snapshot: %+v", last)
	}
}

func TestCloseFailsQueuedJobsAndRejectsSubmissions(t *testing.T) {
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseAll)
	var parked sync.WaitGroup
	parked.Add(1)
	testHookRunning = func(j *job) { parked.Done(); <-release }
	defer func() { testHookRunning = nil }()

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cache: cache, Concurrency: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, running, _ := submitManifest(t, ts, miniManifest, "")
	parked.Wait()
	_, queued, _ := submitManifest(t, ts, miniManifest, "")

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close waits on the running job; let it finish.
	time.Sleep(20 * time.Millisecond)
	releaseAll()
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	if st := waitDone(t, ts, running["id"].(string)); st.State != stateDone {
		t.Fatalf("running job at close finished %s: %s", st.State, st.Error)
	}
	st := waitDone(t, ts, queued["id"].(string))
	if st.State != stateFailed || !strings.Contains(st.Error, "shut down") {
		t.Fatalf("queued job at close: %+v, want failed with shutdown error", st)
	}

	if code, body, _ := submitManifest(t, ts, miniManifest, ""); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close submit: %d %v", code, body)
	}
}

// TestConcurrentQueueFullRejectionsKeepRegistryConsistent hammers a
// full queue with concurrent submissions — some accepted, most
// rejected — and asserts the job registry stays coherent: the listing
// serves exactly the accepted jobs and never panics on a dangling id.
// Regression: the queue-full path used to roll back its registration
// by truncating the tail of the order slice, which under this load
// could drop a concurrent submission's id and leave its own dangling.
func TestConcurrentQueueFullRejectionsKeepRegistryConsistent(t *testing.T) {
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseAll)
	var parked sync.WaitGroup
	parked.Add(1)
	once := sync.Once{}
	testHookRunning = func(j *job) { once.Do(parked.Done); <-release }
	defer func() { testHookRunning = nil }()

	_, ts := newTestServer(t, func(c *Config) {
		c.Concurrency = 1
		c.QueueLimit = 2
		c.ClientQuota = 1
	})

	// Job 1 parks on the sole runner; the queue (capacity 2) is empty.
	code, _, _ := submitManifest(t, ts, miniManifest, "seed")
	if code != http.StatusAccepted {
		t.Fatalf("seed submit: %d", code)
	}
	parked.Wait()

	// 16 clients race for the 2 queue slots.
	type outcome struct {
		code int
		id   string
		err  error
	}
	results := make(chan outcome, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			req, err := http.NewRequest("POST", ts.URL+"/sweeps", strings.NewReader(miniManifest))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			req.Header.Set("X-Accesys-Client", fmt.Sprintf("c%d", g))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				results <- outcome{err: err}
				return
			}
			id, _ := body["id"].(string)
			results <- outcome{code: resp.StatusCode, id: id}
		}(g)
	}
	accepted := map[string]bool{}
	rejected := 0
	for i := 0; i < 16; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("concurrent submit: %v", o.err)
		}
		switch o.code {
		case http.StatusAccepted:
			accepted[o.id] = true
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("concurrent submit: status %d", o.code)
		}
	}
	if len(accepted) != 2 || rejected != 14 {
		t.Fatalf("accepted %d rejected %d, want 2/14", len(accepted), rejected)
	}

	// The listing must be exactly seed + the accepted jobs, in order —
	// a corrupted registry either 500s, drops an accepted id, or keeps
	// a rejected one.
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/sweeps", &listing); code != http.StatusOK {
		t.Fatalf("listing status %d", code)
	}
	if len(listing.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3: %+v", len(listing.Jobs), listing.Jobs)
	}
	for _, j := range listing.Jobs[1:] {
		if !accepted[j.ID] {
			t.Fatalf("listing holds unaccepted job %s", j.ID)
		}
	}

	releaseAll()
	for id := range accepted {
		if st := waitDone(t, ts, id); st.State != stateDone {
			t.Fatalf("accepted job %s finished %s: %s", id, st.State, st.Error)
		}
	}
}

// TestSubmitQueueFullRegistryInvariant hammers submit from many
// goroutines against a tiny queue that the runner is actively
// draining, so accepted and queue-full submissions interleave at the
// capacity boundary, then checks the registry invariant: every id in
// the order slice resolves to a registered job and vice versa.
// Regression: the old queue-full rollback truncated the tail of the
// order slice instead of removing its own id, so a rejection racing an
// accepted registration dropped the wrong id and left its own
// dangling, making the listing panic on a nil job.
func TestSubmitQueueFullRegistryInvariant(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse([]byte(miniManifest))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cache: cache, Concurrency: 1, QueueLimit: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				// Fresh client per attempt keeps quota out of the way:
				// every submission reaches the queue send.
				s.submit(fmt.Sprintf("g%d-%d", g, k), sc, []byte(miniManifest), false, len(runs))
			}
		}(g)
	}
	wg.Wait()

	s.mu.Lock()
	for _, id := range s.order {
		if s.jobs[id] == nil {
			s.mu.Unlock()
			t.Fatalf("order holds id %s with no registered job", id)
		}
	}
	ordered := len(s.order)
	registered := len(s.jobs)
	s.mu.Unlock()
	if ordered != registered {
		t.Fatalf("order has %d ids but jobs has %d entries", ordered, registered)
	}
	// The listing exercises the same invariant end to end.
	_ = s.snapshotAll()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSubmitCloseRace drives submissions concurrently with Close.
// Regression: submit used to send on the queue after releasing the
// server lock, so a submission in flight while Close closed the
// channel panicked the daemon; the send now happens under the same
// lock that serialises the closed flag.
func TestSubmitCloseRace(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse([]byte(miniManifest))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		s, err := New(Config{Cache: cache, Concurrency: 1, QueueLimit: 4})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := 0; ; k++ {
					// Fresh client every attempt so quota never rejects
					// before the send path is reached.
					_, serr := s.submit(fmt.Sprintf("c%d-%d", g, k), sc, []byte(miniManifest), false, len(runs))
					if serr == errServerClosed {
						return
					}
				}
			}(g)
		}
		close(start)
		if err := s.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
		wg.Wait()
	}
}

// TestJobRetentionEvictsOldestTerminal pins the retention policy: with
// JobRetention 2, four finished jobs leave only the newest two
// pollable, and the per-client quota table drops emptied entries.
func TestJobRetentionEvictsOldestTerminal(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.JobRetention = 2 })
	var ids []string
	for i := 0; i < 4; i++ {
		code, body, _ := submitManifest(t, ts, miniManifest, "alice")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		id := body["id"].(string)
		waitDone(t, ts, id)
		ids = append(ids, id)
	}

	// Eviction runs just after the terminal state becomes pollable, so
	// give the last finish a moment to complete its bookkeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var listing struct {
			Jobs []JobStatus `json:"jobs"`
		}
		if code := getJSON(t, ts.URL+"/sweeps", &listing); code != http.StatusOK {
			t.Fatalf("listing status %d", code)
		}
		if len(listing.Jobs) == 2 {
			if listing.Jobs[0].ID != ids[2] || listing.Jobs[1].ID != ids[3] {
				t.Fatalf("retained jobs %+v, want %v then %v", listing.Jobs, ids[2], ids[3])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listing never shrank to 2 jobs: %d", len(listing.Jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Evicted jobs are gone from poll and rows alike.
	for _, url := range []string{ts.URL + "/sweeps/" + ids[0], ts.URL + "/sweeps/" + ids[0] + "/rows"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s after eviction: %d, want 404", url, resp.StatusCode)
		}
	}

	// All of alice's jobs finished, so her quota entry is deleted, not
	// left at zero.
	s.mu.Lock()
	clients := len(s.byClient)
	s.mu.Unlock()
	if clients != 0 {
		t.Fatalf("byClient has %d entries after all jobs finished, want 0", clients)
	}
}

func TestPanickingJobFailsWithoutKillingServer(t *testing.T) {
	// A TLB geometry the SMMU cannot build panics inside the simulator.
	// The manifest expands fine, so the submission is accepted; the
	// runner must contain the panic as a failed job and keep serving.
	const panicManifest = `{
  "name": "boom",
  "title": "panic sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "smmu", "values": [{"tlb_assoc": 3}]}]
}`
	_, ts := newTestServer(t, nil)
	code, body, _ := submitManifest(t, ts, panicManifest, "")
	if code != http.StatusAccepted {
		t.Fatalf("panic submit: %d %v", code, body)
	}
	st := waitDone(t, ts, body["id"].(string))
	if st.State != stateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panicking job = %+v, want failed with a panic error", st)
	}
	// The daemon survived: a healthy job still runs to completion.
	code, body, _ = submitManifest(t, ts, miniManifest, "")
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit: %d %v", code, body)
	}
	if st := waitDone(t, ts, body["id"].(string)); st.State != stateDone {
		t.Fatalf("follow-up job after a panic = %+v, want done", st)
	}
}

func TestStatsCountCacheAndDedup(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, body, _ := submitManifest(t, ts, miniManifest, "")
	waitDone(t, ts, body["id"].(string))
	var stats struct {
		Cache map[string]int `json:"cache"`
		Dedup map[string]int `json:"dedup"`
		Jobs  map[string]int `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Cache["misses"] != 2 {
		t.Fatalf("cache stats %v, want 2 misses", stats.Cache)
	}
	if stats.Dedup["inflight"] != 0 {
		t.Fatalf("dedup inflight %d after idle", stats.Dedup["inflight"])
	}
	if stats.Jobs[stateDone] != 1 {
		t.Fatalf("job counts %v", stats.Jobs)
	}
	_ = s
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}
}

// TestFinishedJobIsDurable pins per-job persistence: once a job
// reports done, a fresh LoadProfile of the cache directory already
// holds its cold points' walls and the directory's counters already
// hold its misses (cold job) and hits (warm job), with the daemon
// still running.
func TestFinishedJobIsDurable(t *testing.T) {
	var dir string
	_, ts := newTestServer(t, func(cfg *Config) {
		dir = cfg.Cache.Dir()
		prof, err := sweep.LoadProfile(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Profile = prof
	})
	persisted := func() (int, sweep.Counters) {
		t.Helper()
		prof, err := sweep.LoadProfile(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sweep.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := c.Counters()
		if err != nil {
			t.Fatal(err)
		}
		return prof.Len(), tot
	}

	_, body, _ := submitManifest(t, ts, miniManifest, "")
	if st := waitDone(t, ts, body["id"].(string)); st.State != stateDone || st.Cold != 2 {
		t.Fatalf("cold job = %+v", st)
	}
	if walls, tot := persisted(); walls != 2 || (tot != sweep.Counters{Misses: 2}) {
		t.Fatalf("after the cold job: %d walls, counters %+v; want 2 walls, 2 misses", walls, tot)
	}
	_, body, _ = submitManifest(t, ts, miniManifest, "")
	if st := waitDone(t, ts, body["id"].(string)); st.State != stateDone || st.Warm != 2 {
		t.Fatalf("warm job = %+v", st)
	}
	if walls, tot := persisted(); walls != 2 || (tot != sweep.Counters{Hits: 2, Misses: 2}) {
		t.Fatalf("after the warm job: %d walls, counters %+v; want 2 walls, 2 hits, 2 misses", walls, tot)
	}
}

func TestRowsBeforeDoneConflicts(t *testing.T) {
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	var parked sync.WaitGroup
	parked.Add(1)
	testHookRunning = func(j *job) { parked.Done(); <-release }
	defer func() { testHookRunning = nil }()

	_, ts := newTestServer(t, func(c *Config) { c.Concurrency = 1 })
	t.Cleanup(releaseAll)
	_, body, _ := submitManifest(t, ts, miniManifest, "")
	parked.Wait()
	id := body["id"].(string)

	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rows while running: %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unfinished rows response missing Retry-After")
	}
	releaseAll()
	waitDone(t, ts, id)
}

func TestServeFleetExecutor(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed serve is not short")
	}
	srv, ts := newTestServer(t, func(c *Config) {
		c.FleetSpec = fleet.LocalSpec(2)
	})
	_, body, _ := submitManifest(t, ts, miniManifest, "")
	st := waitDone(t, ts, body["id"].(string))
	if st.State != stateDone {
		t.Fatalf("fleet job failed: %s", st.Error)
	}
	if st.Cold != 2 {
		t.Fatalf("fleet job cold = %d, want 2", st.Cold)
	}
	var rows scenario.Result
	if code := getJSON(t, ts.URL+"/sweeps/"+st.ID+"/rows", &rows); code != http.StatusOK {
		t.Fatalf("rows status %d", code)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("fleet rows %+v", rows)
	}
	// The job's fleet work directory is gone once its shards merged.
	if _, err := os.Stat(filepath.Join(srv.cfg.WorkDir, st.ID)); !os.IsNotExist(err) {
		t.Fatalf("fleet work directory left behind: %v", err)
	}
}

// TestServeFleetJobWithFailedPoint runs a fleet-backed job whose
// manifest holds a failing point: the job fails naming that point
// once, after counting both points' runs, and its work directory is
// gone because the shards still merged.
func TestServeFleetJobWithFailedPoint(t *testing.T) {
	const pktManifest = `{
  "name": "pkt",
  "title": "packet sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "smmu", "values": [{"tlb_assoc": 4}, {"tlb_assoc": 3}]}]
}`
	srv, ts := newTestServer(t, func(c *Config) { c.FleetSpec = fleet.LocalSpec(2) })
	_, body, _ := submitManifest(t, ts, pktManifest, "")
	st := waitDone(t, ts, body["id"].(string))
	if st.State != stateFailed || strings.Count(st.Error, `"pkt-assoc3" panicked`) != 1 || st.Cold != 2 {
		t.Fatalf("fleet job = %+v, want failed naming pkt-assoc3 once after 2 cold runs", st)
	}
	if _, err := os.Stat(filepath.Join(srv.cfg.WorkDir, st.ID)); !os.IsNotExist(err) {
		t.Fatalf("fleet work directory left behind: %v", err)
	}
}

// TestConcurrentOverlapLeaderPanicFailsBothJobs races the in-flight
// dedup against a panicking simulation: two jobs submit the same
// panicking point concurrently, so one job's sweep leads the shared
// flight call and blows up mid-simulation. The follower must observe
// that failure — its job fails with the panic error too — rather than
// hanging on the flight's done channel or adopting a zero Result as a
// completed point. The daemon itself must survive both.
func TestConcurrentOverlapLeaderPanicFailsBothJobs(t *testing.T) {
	const panicManifest = `{
  "name": "boom",
  "title": "panic overlap",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "smmu", "values": [{"tlb_assoc": 3}]}]
}`
	start := make(chan struct{})
	arrived := make(chan struct{}, 2)
	testHookRunning = func(j *job) {
		// Park both jobs at the starting line so their sweeps overlap
		// on the panicking point.
		arrived <- struct{}{}
		<-start
	}
	defer func() { testHookRunning = nil }()

	_, ts := newTestServer(t, func(c *Config) { c.Concurrency = 2; c.Jobs = 2 })
	_, b1, _ := submitManifest(t, ts, panicManifest, "alice")
	_, b2, _ := submitManifest(t, ts, panicManifest, "bob")
	<-arrived
	<-arrived
	close(start)

	st1 := waitDone(t, ts, b1["id"].(string))
	st2 := waitDone(t, ts, b2["id"].(string))
	for i, st := range []JobStatus{st1, st2} {
		if st.State != stateFailed {
			t.Fatalf("job %d = %+v, want failed (follower adopted a zero result?)", i+1, st)
		}
		if !strings.Contains(st.Error, "panicked") {
			t.Fatalf("job %d error %q, want the propagated panic", i+1, st.Error)
		}
	}

	// The daemon is still healthy: a clean job completes.
	code, body, _ := submitManifest(t, ts, miniManifest, "")
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit: %d %v", code, body)
	}
	if st := waitDone(t, ts, body["id"].(string)); st.State != stateDone {
		t.Fatalf("follow-up job after the shared panic = %+v, want done", st)
	}
}
