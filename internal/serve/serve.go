// Package serve is the sweep-as-a-service daemon behind
// `accesys serve`: a long-lived HTTP/JSON front end that accepts
// scenario manifests, queues them onto a bounded job queue, executes
// them against one shared warm cache, and serves rendered rows back.
// Concurrent jobs submitting overlapping manifests share cold
// simulations through one in-flight dedup Flight instead of racing,
// and every running job draws on the one simulation budget that
// Flight carries;
// a full queue pushes back with Retry-After instead of accepting
// unbounded work; per-client quotas keep one client from monopolising
// the queue; a retention cap on finished jobs keeps the job table
// bounded over the daemon's lifetime.
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"accesys/internal/fleet"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// Config parameterises a Server.
type Config struct {
	// Cache is the shared warm result cache every job reads and writes.
	// Required.
	Cache *sweep.Cache
	// Profile, when non-nil, records per-point wall times across jobs
	// and is flushed after every job, so the daemon keeps improving the
	// fleet partitioner's schedule while it serves.
	Profile *sweep.Profile
	// Jobs sizes the daemon's simulation budget: Jobs × Concurrency
	// cold simulations run at once, shared by every running job, and
	// each job may use every slot that is free (0 = one per CPU). A
	// fleet job's shards run with Jobs workers each.
	Jobs int
	// Concurrency is how many jobs run at once (default 2). Queued jobs
	// beyond it wait in submission order.
	Concurrency int
	// QueueLimit bounds jobs accepted but not yet running (default 16);
	// submissions beyond it are rejected with 503 + Retry-After.
	QueueLimit int
	// ClientQuota bounds one client's unfinished (queued or running)
	// jobs (default 4); submissions beyond it are rejected with 429.
	ClientQuota int
	// JobRetention bounds how many terminal (done or failed) jobs stay
	// pollable (default 256); beyond it the oldest are evicted, results
	// and all, so a long-lived daemon's job table doesn't grow without
	// bound. Unfinished jobs are never evicted.
	JobRetention int
	// FleetSpec, when non-nil, runs each job through the fleet
	// scheduler (fleet.Launch) instead of the in-process executor; the
	// shard caches merge into Cache's directory, so later jobs still
	// warm-hit earlier fleet work.
	FleetSpec *fleet.Spec
	// WorkDir holds per-job fleet work directories and spooled
	// manifests (default: <cache dir>/serve).
	WorkDir string
	// GCInterval, when positive, runs Cache.GC(GCMaxAge, GCMaxEntries)
	// periodically while the server is open.
	GCInterval   time.Duration
	GCMaxAge     time.Duration
	GCMaxEntries int
	// Clock supplies job timestamps and Retry-After math, injectable
	// for deterministic tests. Nil means time.Now.
	Clock func() time.Time
	// Logf, when non-nil, receives server diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return 2
}

// slots is the daemon's simulation budget: Jobs × Concurrency, with
// Jobs 0 counting one per CPU.
func (c Config) slots() int {
	jobs := c.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return jobs * c.concurrency()
}

func (c Config) queueLimit() int {
	if c.QueueLimit > 0 {
		return c.QueueLimit
	}
	return 16
}

func (c Config) clientQuota() int {
	if c.ClientQuota > 0 {
		return c.ClientQuota
	}
	return 4
}

func (c Config) jobRetention() int {
	if c.JobRetention > 0 {
		return c.JobRetention
	}
	return 256
}

// Server is one running sweep service. Build with New, mount Handler
// on an http.Server, and Close on shutdown.
type Server struct {
	cfg    Config
	flight *sweep.Flight // dedup and the simulation budget, shared by every job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string       // job ids in submission order
	byClient map[string]int // client -> unfinished job count
	nextID   int
	closed   bool

	queue   chan *job
	done    chan struct{} // closed by Close: stops GC, fails queued jobs
	runners sync.WaitGroup
}

// testHookRunning, when non-nil, is invoked as each job enters the
// running state — white-box tests park the runner here to make queue
// and quota states deterministic.
var testHookRunning func(*job)

// testHookRun, when non-nil, replaces the in-process executor's
// scenario run, receiving the options the job would sweep with —
// white-box tests sweep blocking points through the server's Flight.
var testHookRun func(*job, scenario.Options) (*scenario.Result, error)

// New validates the config and starts the runner pool (and the GC
// ticker when configured). The server accepts submissions until Close.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil || cfg.Cache.Dir() == "" {
		return nil, fmt.Errorf("serve: config needs a cache with a directory")
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = filepath.Join(cfg.Cache.Dir(), "serve")
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		flight:   sweep.NewFlight(cfg.slots()),
		jobs:     map[string]*job{},
		byClient: map[string]int{},
		queue:    make(chan *job, cfg.queueLimit()),
		done:     make(chan struct{}),
	}
	for i := 0; i < cfg.concurrency(); i++ {
		s.runners.Add(1)
		go s.runLoop()
	}
	if cfg.GCInterval > 0 {
		s.runners.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close stops accepting submissions, fails jobs still waiting in the
// queue, waits for running jobs to finish, and flushes the cache
// counters and profile a final time.
//
// Closing s.queue is safe only because every send holds s.mu and
// re-checks closed first: once closed flips under the lock, no sender
// can reach the channel again, so the close below cannot race a send.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	close(s.queue)
	s.runners.Wait()
	return s.cfg.Cache.FlushState(s.cfg.Profile)
}

// submit registers and enqueues a parsed job. It returns a submitError
// carrying the HTTP status the handler should answer with when the
// server is closed, the client is over quota, or the queue is full.
//
// The non-blocking enqueue happens while still holding s.mu, for two
// reasons. First, closed is checked under the same lock Close sets it,
// and Close only closes s.queue after flipping closed — so no send can
// race the close (a send on a closed channel panics). Second, a job is
// registered in jobs/order/byClient only after its enqueue succeeds,
// so a queue-full rejection has nothing to roll back — no window where
// a concurrent submit's registration could be clobbered.
func (s *Server) submit(client string, sc *scenario.Scenario, manifest []byte, full bool, total int) (*job, *submitError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errServerClosed
	}
	if s.byClient[client] >= s.cfg.clientQuota() {
		return nil, errQuotaExceeded
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j%d", s.nextID),
		client:    client,
		name:      sc.Name,
		scenario:  sc,
		manifest:  manifest,
		full:      full,
		state:     stateQueued,
		total:     total,
		submitted: s.now(),
	}
	select {
	case s.queue <- j:
	default:
		s.nextID--
		return nil, errQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byClient[client]++
	return j, nil
}

// finish persists the cache counters and wall profile, then moves a
// job to a terminal state with its result or error, releases its quota
// slot, and enforces the terminal-job retention cap. Flushing first
// makes a job's counts and cold walls durable by the time any client
// sees it finish.
func (s *Server) finish(j *job, res *scenario.Result, err error) {
	if ferr := s.cfg.Cache.FlushState(s.cfg.Profile); ferr != nil {
		s.logf("serve: flushing state after %s: %v", j.id, ferr)
	}
	j.mu.Lock()
	j.finished = s.now()
	j.scenario = nil
	if err != nil {
		j.state = stateFailed
		j.err = err.Error()
	} else {
		j.state, j.result = stateDone, res
	}
	j.mu.Unlock()
	j.publish()

	s.mu.Lock()
	s.byClient[j.client]--
	if s.byClient[j.client] <= 0 {
		delete(s.byClient, j.client)
	}
	s.evictLocked()
	s.mu.Unlock()
}

// evictLocked enforces JobRetention: when terminal jobs exceed the
// cap, the oldest are dropped from jobs/order — and their manifests
// and rendered results with them — so a long-lived daemon's job table
// stays bounded. Unfinished jobs are never evicted. The caller holds
// s.mu; taking j.mu inside it is safe because no path acquires s.mu
// while holding a job's lock.
func (s *Server) evictLocked() {
	over := -s.cfg.jobRetention()
	for _, id := range s.order {
		if s.jobs[id].terminalState() {
			over++
		}
	}
	if over <= 0 {
		return
	}
	kept := make([]string, 0, len(s.order)-over)
	for _, id := range s.order {
		if over > 0 && s.jobs[id].terminalState() {
			delete(s.jobs, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// runLoop is one runner: it drains the queue until Close. Jobs still
// queued at shutdown fail instead of running, so Close never waits on
// a deep queue.
func (s *Server) runLoop() {
	defer s.runners.Done()
	for j := range s.queue {
		select {
		case <-s.done:
			s.finish(j, nil, fmt.Errorf("server shut down before the job ran"))
			continue
		default:
		}
		s.runJob(j)
	}
}

// runJob executes one job against the shared cache.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	j.state = stateRunning
	j.started = s.now()
	j.mu.Unlock()
	j.publish()
	if testHookRunning != nil {
		testHookRunning(j)
	}

	// A failed point fails the job with an error naming every failed
	// point; the sweep engine has already turned a panic into that.
	run := s.runInProcess
	if s.cfg.FleetSpec != nil {
		run = s.runFleet
	}
	res, err := run(j)
	s.finish(j, res, err)
}

// runInProcess is the default executor: the job sweeps directly on the
// shared cache, coalescing with every other running job through the
// server's Flight. Its engine gets a worker per simulation slot, so a
// job may use every slot the other jobs leave free; the Flight keeps
// the daemon's total within the budget.
func (s *Server) runInProcess(j *job) (*scenario.Result, error) {
	o := scenario.Options{
		Full:     j.full,
		Jobs:     s.cfg.slots(),
		Cache:    s.cfg.Cache,
		Profile:  s.cfg.Profile,
		Flight:   s.flight,
		OnResult: j.observe,
	}
	if testHookRun != nil {
		return testHookRun(j, o)
	}
	return j.scenario.Run(o)
}

// runFleet executes the job through the fleet scheduler: the manifest
// spools to the job's work directory (subprocess and command workers
// load it from disk), the shard caches merge into the shared cache,
// and a warm collection sweep renders the rows. Progress is
// shard-grained: counters land when the fleet report does. The work
// directory is removed once the shards have merged; failed points then
// fail the job.
func (s *Server) runFleet(j *job) (*scenario.Result, error) {
	dir := filepath.Join(s.cfg.WorkDir, j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manifestPath, j.manifest, 0o644); err != nil {
		return nil, err
	}
	points, err := j.scenario.PointsFor(j.full)
	if err != nil {
		return nil, err
	}
	rep, _, err := fleet.Launch(context.Background(), fleet.LaunchOptions{
		Name:     j.scenario.Name,
		Full:     j.full,
		Points:   points,
		Manifest: manifestPath,
		Spec:     s.cfg.FleetSpec,
		OutDir:   s.cfg.Cache.Dir(),
		WorkDir:  dir,
		Jobs:     s.cfg.Jobs,
		Warnf:    func(format string, args ...any) { s.logf("serve: %s: "+format, append([]any{j.id}, args...)...) },
	})
	if rep == nil {
		return nil, err
	}
	if rerr := os.RemoveAll(dir); rerr != nil {
		s.logf("serve: %s: removing fleet work directory: %v", j.id, rerr)
	}
	j.mu.Lock()
	for _, sr := range rep.Shards {
		j.cold += sr.Cold
		j.warm += sr.Warm
	}
	j.mu.Unlock()
	j.publish()
	if err != nil {
		return nil, err
	}
	// Collection pass: every point is now merged into the shared cache,
	// so this sweep serves warm and renders byte-identically to a
	// single-process run. It counts toward completed, not cold/warm —
	// the fleet report already accounted for the simulations.
	return j.scenario.Run(scenario.Options{
		Full:  j.full,
		Jobs:  s.cfg.Jobs,
		Cache: s.cfg.Cache,
		OnResult: func(r sweep.Result) {
			j.mu.Lock()
			j.completed++
			j.mu.Unlock()
			j.publish()
		},
	})
}

// gcLoop ages the shared cache periodically until Close.
func (s *Server) gcLoop() {
	defer s.runners.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			res, err := s.cfg.Cache.GC(s.cfg.GCMaxAge, s.cfg.GCMaxEntries)
			if err != nil {
				s.logf("serve: gc: %v", err)
				continue
			}
			if res.Evicted > 0 || res.Temps > 0 {
				s.logf("serve: gc evicted %d entries (%d bytes), %d stale temps", res.Evicted, res.EvictedBytes, res.Temps)
			}
		}
	}
}

// job looks up a job by id.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshotAll returns every job's status in submission order.
func (s *Server) snapshotAll() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}
