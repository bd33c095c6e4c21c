package fleet

// Scheduler tests over in-process executors and injected failures: the
// fleet must complete every shard, reassign work away from dying
// workers (serving a dead worker's partial progress warm to the
// successor), retire workers that keep failing, finish a shard whose
// points failed without blaming its worker, and fail loudly when a
// shard exhausts its attempts.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"accesys/internal/shard"
	"accesys/internal/sim"
	"accesys/internal/sweep"
)

func fakePoints(n int) []sweep.Point {
	pts := make([]sweep.Point, n)
	for i := range pts {
		i := i
		pts[i] = sweep.Point{
			Key:         fmt.Sprintf("pt-%d", i),
			Fingerprint: sweep.Fingerprint("fleet-fake", i),
			Run:         func() sweep.Outcome { return sweep.Outcome{Dur: sim.Tick(i + 1)} },
		}
	}
	return pts
}

// newScheduler builds a scheduler over the given executors and a fresh
// partition of npoints fake points into nshards.
func newScheduler(t *testing.T, npoints, nshards int, mk func(plan *shard.Plan, pts []sweep.Point) []Executor) (*Scheduler, []sweep.Point) {
	t.Helper()
	pts := fakePoints(npoints)
	plan, err := shard.Partition("fleetfake", false, pts, nshards, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	return &Scheduler{
		Plan:    plan,
		Workers: mk(plan, pts),
		WorkDir: filepath.Join(root, "work"),
		OutDir:  filepath.Join(root, "merged"),
	}, pts
}

func inProcessWorkers(n int) func(plan *shard.Plan, pts []sweep.Point) []Executor {
	return func(plan *shard.Plan, pts []sweep.Point) []Executor {
		ws := make([]Executor, n)
		for i := range ws {
			ws[i] = &InProcess{WorkerName: fmt.Sprintf("w%d", i), Plan: plan, Points: pts}
		}
		return ws
	}
}

// deadWorker fails every job — a machine that is simply gone.
type deadWorker struct{ name string }

func (d *deadWorker) Name() string                   { return d.name }
func (d *deadWorker) Run(context.Context, Job) error { return errors.New("injected death") }

// dyingWorker simulates a worker killed mid-run: it completes the
// first point of its slice (the cache entry lands on disk) and then
// dies, leaving a partial shard directory behind.
type dyingWorker struct {
	name   string
	plan   *shard.Plan
	points []sweep.Point
}

func (d *dyingWorker) Name() string { return d.name }

func (d *dyingWorker) Run(_ context.Context, job Job) error {
	sel := d.plan.Select(job.Shard)
	if len(sel) > 0 {
		cache, err := sweep.OpenSalted(job.Dir)
		if err != nil {
			return err
		}
		pt := d.points[sel[0]]
		cache.Put(pt.Fingerprint, pt.Run())
	}
	return errors.New("killed mid-run")
}

// flakyWorker fails its first attempt at every shard, then delegates —
// a transiently unhealthy machine.
type flakyWorker struct {
	inner  Executor
	mu     sync.Mutex
	failed map[int]bool
}

func (f *flakyWorker) Name() string { return f.inner.Name() }

func (f *flakyWorker) Run(ctx context.Context, job Job) error {
	f.mu.Lock()
	first := !f.failed[job.Shard]
	f.failed[job.Shard] = true
	f.mu.Unlock()
	if first {
		return errors.New("transient failure")
	}
	return f.inner.Run(ctx, job)
}

func TestSchedulerRunsAllShardsAndMerges(t *testing.T) {
	s, pts := newScheduler(t, 12, 3, inProcessWorkers(3))
	// Verbose workers and the scheduler share one locked stream — the
	// production wiring — so -race patrols the concurrent writes.
	var log strings.Builder
	stream := NewSyncWriter(&log)
	for _, e := range s.Workers {
		e.(*InProcess).Out = stream
	}
	s.Verbose = true
	s.Out = stream
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet failed: %v\nlog:\n%s", err, log.String())
	}
	if rep.Reassigned != 0 || rep.Retired != 0 {
		t.Fatalf("healthy fleet reported reassignments: %+v", rep)
	}
	total := 0
	for k, sr := range rep.Shards {
		if sr.Worker == "" || sr.Attempts != 1 || sr.Points != s.Plan.Counts[k] {
			t.Fatalf("shard %d result %+v, want 1 attempt of %d points", k, sr, s.Plan.Counts[k])
		}
		total += sr.Points
	}
	if total != 12 {
		t.Fatalf("shards cover %d of 12 points", total)
	}
	if rep.Merge == nil || rep.Merge.Imported != 12 {
		t.Fatalf("merge stats = %+v, want 12 imported", rep.Merge)
	}
	// The merged cache warm-hits every point under this binary's salt.
	cache, err := sweep.OpenSalted(s.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if out, ok := cache.Get(p.Fingerprint); !ok || out.Dur != sim.Tick(i+1) {
			t.Fatalf("merged Get(%s) = %v, %v", p.Key, out, ok)
		}
	}
}

func TestSchedulerReassignsAwayFromDeadWorker(t *testing.T) {
	// A dead worker next to a healthy one. How many shards reach the
	// dead worker before the healthy one drains the queue is a timing
	// race, so retire on the first failure to make retirement itself
	// deterministic: the dead worker always fails the first shard it is
	// handed.
	s, _ := newScheduler(t, 10, 4, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		return []Executor{
			&deadWorker{name: "dead"},
			&InProcess{WorkerName: "ok0", Plan: plan, Points: pts},
		}
	})
	s.MaxAttempts = 5
	s.retireAfter = 1
	var log strings.Builder
	s.Out = &log
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet failed: %v\nlog:\n%s", err, log.String())
	}
	if rep.Reassigned < 1 {
		t.Fatalf("dead worker produced no reassignments: %+v\n%s", rep, log.String())
	}
	if rep.Retired != 1 {
		t.Fatalf("dead worker not retired: %+v\n%s", rep, log.String())
	}
	for _, sr := range rep.Shards {
		if sr.Worker == "dead" {
			t.Fatalf("shard %d credited to the dead worker", sr.Shard)
		}
	}
	if rep.Merge == nil || rep.Merge.Points != 10 {
		t.Fatalf("merge stats = %+v", rep.Merge)
	}
}

func TestSchedulerServesDyingWorkersProgressWarm(t *testing.T) {
	// The mid-run kill: the dying worker persisted one point before
	// dying, so the successor's summary must show at least one warm
	// point for a reassigned shard — the shard directory survives the
	// attempt.
	var dying *dyingWorker
	s, _ := newScheduler(t, 9, 3, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		dying = &dyingWorker{name: "dying", plan: plan, points: pts}
		return []Executor{
			dying,
			&InProcess{WorkerName: "ok", Plan: plan, Points: pts},
		}
	})
	s.MaxAttempts = 5
	var log strings.Builder
	s.Out = &log
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet failed: %v\nlog:\n%s", err, log.String())
	}
	warm := 0
	for _, sr := range rep.Shards {
		if sr.Attempts > 1 {
			warm += sr.Warm
		}
	}
	if warm == 0 {
		t.Fatalf("no reassigned shard was served warm:\n%+v\n%s", rep.Shards, log.String())
	}
	// All of the dying worker's progress still merged exactly once.
	if rep.Merge == nil || rep.Merge.Points != 9 {
		t.Fatalf("merge stats = %+v", rep.Merge)
	}
}

func TestSchedulerRetriesTransientFailureOnSoleWorker(t *testing.T) {
	// A one-worker fleet whose worker fails each shard once: with
	// nobody else to take the shard, the retry lands on the same worker,
	// which never retires as the last one live, and the fleet completes.
	s, _ := newScheduler(t, 6, 2, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		return []Executor{&flakyWorker{
			inner:  &InProcess{WorkerName: "flaky", Plan: plan, Points: pts},
			failed: map[int]bool{},
		}}
	})
	var log strings.Builder
	s.Out = &log
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("transient failures killed the fleet: %v\nlog:\n%s", err, log.String())
	}
	for _, sr := range rep.Shards {
		if sr.Attempts != 2 || sr.Worker != "flaky" {
			t.Fatalf("shard %d result %+v, want 2 attempts on flaky", sr.Shard, sr)
		}
	}
	// A sole worker retrying its own shard is a retry, not a
	// reassignment.
	if rep.Reassigned != 0 {
		t.Fatalf("same-worker retries counted as reassignments: %+v", rep)
	}
	if rep.Merge == nil || rep.Merge.Points != 6 {
		t.Fatalf("merge stats = %+v", rep.Merge)
	}
}

func TestSchedulerFailsWhenNoWorkerCanRunAShard(t *testing.T) {
	s, _ := newScheduler(t, 6, 2, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		return []Executor{&deadWorker{name: "dead"}}
	})
	s.MaxAttempts = 10
	_, err := s.Run(context.Background())
	if err == nil {
		t.Fatal("all-dead fleet reported success")
	}
}

// TestSchedulerLastWorkerNeverRetires pins MaxAttempts as the one
// bound on a hopeless shard: a sole dead worker is never retired, so
// it retries the heaviest shard until its attempts run out.
func TestSchedulerLastWorkerNeverRetires(t *testing.T) {
	s, _ := newScheduler(t, 6, 2, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		return []Executor{&deadWorker{name: "dead"}}
	})
	s.MaxAttempts = 4
	var log strings.Builder
	s.Out = &log
	_, err := s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "failed 4 times (last worker dead): injected death") {
		t.Fatalf("Run error = %v, want the exhausted-attempts error\n%s", err, log.String())
	}
	if strings.Contains(log.String(), "retired") {
		t.Fatalf("the last live worker retired:\n%s", log.String())
	}
}

func TestSchedulerFailsWhenAttemptsExhausted(t *testing.T) {
	s, _ := newScheduler(t, 6, 2, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		return []Executor{
			&deadWorker{name: "d0"},
			&deadWorker{name: "d1"},
			&deadWorker{name: "d2"},
		}
	})
	s.MaxAttempts = 2
	_, err := s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "failed 2 times") {
		t.Fatalf("exhausted attempts not reported: %v", err)
	}
}

// TestSchedulerFailedPointIsTheShardsOutcome pins a failed point as a
// value: the shard holding it runs once, is merged with its siblings,
// and charges no worker, and Run returns the report with one error
// wrapping sweep.ErrPoint that names the failed points of two shards
// in shard order.
func TestSchedulerFailedPointIsTheShardsOutcome(t *testing.T) {
	var bad []string
	failing := map[int]bool{}
	s, _ := newScheduler(t, 12, 3, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		// Fail the first point of the first two non-empty shards.
		for k := 0; k < plan.Shards && len(bad) < 2; k++ {
			if sel := plan.Select(k); len(sel) > 0 {
				pts[sel[0]].Run = func() sweep.Outcome { panic("boom") }
				bad = append(bad, pts[sel[0]].Key)
				failing[k] = true
			}
		}
		return inProcessWorkers(2)(plan, pts)
	})
	s.retireAfter = 1 // a charged failure would retire a worker at once
	var log strings.Builder
	s.Out = &log
	rep, err := s.Run(context.Background())
	if rep == nil {
		t.Fatalf("no report: %v\n%s", err, log.String())
	}
	if !errors.Is(err, sweep.ErrPoint) {
		t.Fatalf("Run error = %v, want one wrapping sweep.ErrPoint", err)
	}
	msg := err.Error()
	first, second := strings.Index(msg, fmt.Sprintf("%q panicked", bad[0])), strings.Index(msg, fmt.Sprintf("%q panicked", bad[1]))
	if first < 0 || second < first || strings.Count(msg, "panicked") != 2 ||
		strings.Count(msg, sweep.ErrPoint.Error()) != 2 || strings.Contains(msg, "failed: "+sweep.ErrPoint.Error()) {
		t.Fatalf("Run error %q, want %q then %q once each, one prefix apiece", msg, bad[0], bad[1])
	}
	if rep.Reassigned != 0 || rep.Retired != 0 || strings.Contains(log.String(), "attempt 2") {
		t.Fatalf("a failed point was charged to its worker: %+v\n%s", rep, log.String())
	}
	for k, sr := range rep.Shards {
		want := 0
		if failing[k] {
			want = 1
		}
		if sr.Attempts != 1 || len(sr.Failed) != want {
			t.Fatalf("shard %d result %+v, want 1 attempt listing %d failed points", k, sr, want)
		}
	}
	if rep.Merge == nil || rep.Merge.Imported != 10 {
		t.Fatalf("merge stats = %+v, want the 10 good points imported", rep.Merge)
	}
}

// recordingWorker fails every shard, like deadWorker, and records the
// shards it was handed.
type recordingWorker struct {
	started <-chan struct{} // closed once the other worker is busy
	mu      sync.Mutex
	ran     []int
}

func (r *recordingWorker) Name() string { return "bad" }

func (r *recordingWorker) Run(_ context.Context, job Job) error {
	<-r.started
	r.mu.Lock()
	r.ran = append(r.ran, job.Shard)
	r.mu.Unlock()
	return errors.New("injected fault")
}

// slowWorker signals that it is busy, then runs its shard a little
// later. The delay only widens the window in which a scheduler without
// the eligibility rule would hand a faulting peer back the shard it
// just failed; a correct scheduler passes whatever the timing.
type slowWorker struct {
	Executor
	once    sync.Once
	started chan struct{}
}

func (w *slowWorker) Run(ctx context.Context, job Job) error {
	w.once.Do(func() { close(w.started) })
	time.Sleep(50 * time.Millisecond)
	return w.Executor.Run(ctx, job)
}

// TestSchedulerNeverRetakesAShardAnotherWorkerCanRun pins the
// eligibility rule: a worker that failed a shard waits while a live
// peer that has not failed it is busy, so the shard moves to the peer.
func TestSchedulerNeverRetakesAShardAnotherWorkerCanRun(t *testing.T) {
	started := make(chan struct{})
	bad := &recordingWorker{started: started}
	s, _ := newScheduler(t, 6, 2, func(plan *shard.Plan, pts []sweep.Point) []Executor {
		return []Executor{bad, &slowWorker{
			Executor: &InProcess{WorkerName: "ok", Plan: plan, Points: pts},
			started:  started,
		}}
	})
	s.MaxAttempts = 5
	var log strings.Builder
	s.Out = &log
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet failed: %v\n%s", err, log.String())
	}
	if len(bad.ran) != 1 || rep.Reassigned != 1 || rep.Shards[bad.ran[0]].Attempts != 2 {
		t.Fatalf("faulting worker ran shards %v; report %+v, want one shard moved to ok\n%s", bad.ran, rep, log.String())
	}
}

func TestSchedulerRequiresWorkers(t *testing.T) {
	s, _ := newScheduler(t, 4, 2, func(*shard.Plan, []sweep.Point) []Executor { return nil })
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("workerless fleet accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	for name, data := range map[string]string{
		"no workers":        `{"workers": []}`,
		"unknown kind":      `{"workers": [{"kind": "teleport"}]}`,
		"command no argv":   `{"workers": [{"kind": "command"}]}`,
		"argv on inprocess": `{"workers": [{"kind": "inprocess", "command": ["x"]}]}`,
		"duplicate names":   `{"workers": [{"name": "a"}, {"name": "a"}]}`,
		"negative jobs":     `{"workers": [{"jobs": -1}]}`,
		"unknown field":     `{"workers": [{"kind": "inprocess"}], "bogus": 1}`,
		"trailing data":     `{"workers": [{}]} {}`,
	} {
		if _, err := ParseSpec([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	spec, err := ParseSpec([]byte(`{"workers": [
		{"name": "here", "kind": "inprocess"},
		{"kind": "subprocess", "env": ["X=1"], "jobs": 2},
		{"kind": "command", "command": ["ssh", "host", "{args}"]}
	]}`))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(spec.Workers) != 3 {
		t.Fatalf("parsed %d workers", len(spec.Workers))
	}
}

func TestLocalSpec(t *testing.T) {
	spec := LocalSpec(3)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(4)
	plan, err := shard.Partition("x", false, pts, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	execs, err := spec.Executors(ExecutorDeps{Plan: plan, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 3 {
		t.Fatalf("built %d executors", len(execs))
	}
	for i, e := range execs {
		if _, ok := e.(*InProcess); !ok {
			t.Fatalf("executor %d is %T, want InProcess", i, e)
		}
	}
}

func TestExecutorsRequireExpansionForInProcess(t *testing.T) {
	spec := LocalSpec(1)
	if _, err := spec.Executors(ExecutorDeps{}); err == nil {
		t.Fatal("in-process executor built without an expansion")
	}
}

func TestShardRunArgs(t *testing.T) {
	got := strings.Join(shardRunArgs(Job{
		Shard: 1, Of: 3, Dir: "/tmp/s1",
		Manifest: "m.json", PlanPath: "p.json",
		Full: true, Jobs: 4, Verbose: true,
	}), " ")
	want := "shard run -full -v -jobs 4 -plan p.json -shard 1/3 -dir /tmp/s1 m.json"
	if got != want {
		t.Fatalf("args = %q, want %q", got, want)
	}
}

func TestCommandExecutorSubstitutesTemplate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ran.txt")
	c := &Command{
		WorkerName: "tpl",
		Template:   []string{"sh", "-c", "echo shard={shard} of={of} dir={dir} > " + out},
	}
	if err := c.Run(context.Background(), Job{Shard: 2, Of: 5, Dir: "/work/s2"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "shard=2 of=5 dir=/work/s2" {
		t.Fatalf("substituted command wrote %q", got)
	}
}

// TestCommandExitStatusOneIsAFailedPoint pins the executors' exit
// contract: `shard run` exits 1 when points failed, which maps to
// sweep.ErrPoint; any other non-zero status is a worker fault.
func TestCommandExitStatusOneIsAFailedPoint(t *testing.T) {
	for status, want := range map[int]bool{1: true, 2: false, 137: false} {
		c := &Command{WorkerName: "exit", Template: []string{"sh", "-c", fmt.Sprintf("exit %d", status)}}
		err := c.Run(context.Background(), Job{})
		if err == nil || errors.Is(err, sweep.ErrPoint) != want {
			t.Errorf("exit %d: error %v, want wrapping sweep.ErrPoint %v", status, err, want)
		}
	}
}

func TestCommandExecutorRejectsEmptyTemplate(t *testing.T) {
	c := &Command{WorkerName: "empty"}
	if err := c.Run(context.Background(), Job{}); err == nil {
		t.Fatal("empty template accepted")
	}
}

func TestPrefixWriterSplitsLines(t *testing.T) {
	var sb strings.Builder
	w := newPrefixWriter(&sb, "p: ")
	io.WriteString(w, "one\ntw")
	io.WriteString(w, "o\nthree")
	w.Flush()
	want := "p: one\np: two\np: three\n"
	if sb.String() != want {
		t.Fatalf("prefixed output:\n%q\nwant\n%q", sb.String(), want)
	}
}

// TestSchedulerWallsOnInjectedClock pins the per-shard wall times in
// the fleet report to an injected clock: with a fake advancing a fixed
// step per reading, every successful shard's wall is an exact multiple
// of the step and the host clock is never consulted. The clock is read
// concurrently from every worker goroutine, so -race patrols the
// required thread-safety too.
func TestSchedulerWallsOnInjectedClock(t *testing.T) {
	s, _ := newScheduler(t, 12, 3, inProcessWorkers(3))
	const step = 50 * time.Millisecond
	base := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	calls := 0
	s.Clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return base.Add(time.Duration(calls) * step)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Two readings per dispatched shard.
	if want := 2 * len(rep.Shards); calls != want {
		t.Fatalf("clock read %d times, want %d (2 per shard)", calls, want)
	}
	for k, sr := range rep.Shards {
		if sr.WallNs <= 0 || sr.WallNs%step.Nanoseconds() != 0 {
			t.Fatalf("shard %d wall %dns is not a positive multiple of the fake step", k, sr.WallNs)
		}
	}
}
