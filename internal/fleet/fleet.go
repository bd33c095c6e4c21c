// Package fleet is the launcher that turns a partitioned sweep into
// one command — the scale-out path for paper-scale (-full) sweeps that
// parti-gem5 motivates for gem5's timing mode. It takes a (preferably
// wall-time-weighted) shard plan plus a fleet spec naming N workers,
// drives `shard run` on every worker concurrently, reassigns a failed
// worker's shard to a healthy one (the shard's cache directory
// survives attempts, so completed points are served warm to the
// successor), streams per-shard progress, and finishes with the
// idempotent merge into one canonical cache. A failed point is its
// shard's outcome, not its worker's fault: the shard still merges and
// the run reports the point's error.
package fleet

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"accesys/internal/shard"
	"accesys/internal/sweep"
)

// WorkerSpec declares one fleet worker.
type WorkerSpec struct {
	// Name labels the worker in progress output (default: kind+index).
	Name string `json:"name,omitempty"`
	// Kind is "inprocess" (default), "subprocess", or "command".
	Kind string `json:"kind,omitempty"`
	// Command is the argv template for command workers; see Command.
	Command []string `json:"command,omitempty"`
	// Env entries are appended to the environment of subprocess and
	// command workers.
	Env []string `json:"env,omitempty"`
	// Jobs bounds the worker's simulation pool (0 = one per CPU).
	Jobs int `json:"jobs,omitempty"`
}

// Spec is a fleet description — what `accesys fleet -fleet fleet.json`
// loads.
type Spec struct {
	Workers []WorkerSpec `json:"workers"`
}

// ParseSpec decodes and validates one fleet spec. Unknown fields are
// rejected so typos fail loudly.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fleet: spec: %v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("fleet: spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and validates the fleet spec at path.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: %v", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%v (spec %s)", err, path)
	}
	return s, nil
}

// LocalSpec is the `-workers N` fleet: N in-process workers.
func LocalSpec(n int) *Spec {
	s := &Spec{Workers: make([]WorkerSpec, n)}
	for i := range s.Workers {
		s.Workers[i] = WorkerSpec{Name: fmt.Sprintf("local%d", i), Kind: "inprocess"}
	}
	return s
}

// Validate checks the spec without building executors.
func (s *Spec) Validate() error {
	if len(s.Workers) == 0 {
		return fmt.Errorf("fleet: spec declares no workers")
	}
	seen := map[string]bool{}
	for i, w := range s.Workers {
		switch w.Kind {
		case "", "inprocess", "subprocess":
			if len(w.Command) != 0 {
				return fmt.Errorf("fleet: worker %d (%s): command is only valid for kind \"command\"", i, w.name(i))
			}
		case "command":
			if len(w.Command) == 0 {
				return fmt.Errorf("fleet: worker %d (%s): command workers need a command template", i, w.name(i))
			}
		default:
			return fmt.Errorf("fleet: worker %d: unknown kind %q (want inprocess, subprocess, or command)", i, w.Kind)
		}
		if w.Jobs < 0 {
			return fmt.Errorf("fleet: worker %d (%s): negative jobs", i, w.name(i))
		}
		name := w.name(i)
		if seen[name] {
			return fmt.Errorf("fleet: duplicate worker name %q", name)
		}
		seen[name] = true
	}
	return nil
}

func (w WorkerSpec) name(i int) string {
	if w.Name != "" {
		return w.Name
	}
	kind := w.Kind
	if kind == "" {
		kind = "inprocess"
	}
	return fmt.Sprintf("%s%d", kind, i)
}

// ExecutorDeps carries what executors need beyond the spec: the
// expanded scenario for in-process workers and the stream worker
// output lands on.
type ExecutorDeps struct {
	Plan   *shard.Plan
	Points []sweep.Point
	// Out receives worker output and progress; nil discards. Workers
	// write from their own goroutines, so when the scheduler's Out is
	// the same destination, pass one shared SyncWriter to both.
	Out io.Writer
}

// Executors builds one executor per declared worker.
func (s *Spec) Executors(deps ExecutorDeps) ([]Executor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := deps.Out
	if out == nil {
		out = io.Discard
	}
	execs := make([]Executor, len(s.Workers))
	for i, w := range s.Workers {
		name := w.name(i)
		prefixed := newPrefixWriter(out, "fleet "+name+": ")
		switch w.Kind {
		case "", "inprocess":
			if deps.Plan == nil || deps.Points == nil {
				return nil, fmt.Errorf("fleet: worker %s: in-process workers need the expanded scenario", name)
			}
			execs[i] = &InProcess{WorkerName: name, Plan: deps.Plan, Points: deps.Points, Jobs: w.Jobs, Out: prefixed}
		case "subprocess":
			execs[i] = &Subprocess{WorkerName: name, Env: w.Env, Jobs: w.Jobs, Out: prefixed}
		case "command":
			execs[i] = &Command{WorkerName: name, Template: w.Command, Env: w.Env, Jobs: w.Jobs, Out: prefixed}
		}
	}
	return execs, nil
}

// ShardResult records how one shard was eventually completed.
type ShardResult struct {
	// Shard is the slice index; Worker names the executor that finally
	// completed it.
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	// Attempts counts executions including the successful one.
	Attempts int `json:"attempts"`
	// WallNs is the successful attempt's scheduler-side wall time.
	WallNs int64 `json:"wall_ns"`
	// Points, Cold, Warm, and Failed echo the shard summary's
	// accounting.
	Points int      `json:"points"`
	Cold   int      `json:"cold"`
	Warm   int      `json:"warm"`
	Failed []string `json:"failed,omitempty"`
}

// Report summarises one fleet run.
type Report struct {
	// Shards has one entry per shard, in shard order.
	Shards []ShardResult `json:"shards"`
	// Reassigned counts attempts that moved a shard to a worker that
	// had not failed it; Retired counts workers taken out of rotation.
	Reassigned int `json:"reassigned"`
	Retired    int `json:"retired"`
	// Merge is the final fold into the canonical cache.
	Merge *shard.MergeStats `json:"merge"`
	// Dirs are the shard cache directories, in shard order.
	Dirs []string `json:"dirs"`
}

// Scheduler drives one fleet run: every shard of Plan through the
// Workers, then the merge into OutDir.
type Scheduler struct {
	// Plan is the partition to execute; Manifest and PlanPath are the
	// files workers load it from.
	Plan     *shard.Plan
	Manifest string
	PlanPath string
	// Workers execute jobs; build them with Spec.Executors.
	Workers []Executor
	// WorkDir holds the per-shard cache directories (s0, s1, ...).
	WorkDir string
	// OutDir is the canonical cache the shards merge into.
	OutDir string
	// Full, Jobs, Verbose forward the sweep execution knobs to jobs.
	Full    bool
	Jobs    int
	Verbose bool
	// Out receives fleet progress lines; nil discards. Share one
	// SyncWriter with ExecutorDeps.Out when both target the same
	// destination — workers write concurrently from their own
	// goroutines.
	Out io.Writer
	// MaxAttempts bounds executions per shard (default 3).
	MaxAttempts int
	// retireAfter overrides the retireAfter constant (tests only).
	retireAfter int
	// Clock supplies the wall-clock readings behind per-shard wall
	// reporting, so scheduling tests run on a fake clock. It is read
	// concurrently from every worker goroutine and must be safe for
	// that. Nil means time.Now.
	Clock func() time.Time
}

// now reads the scheduler's clock.
func (s *Scheduler) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format+"\n", args...)
	}
}

// weight is the shard's predicted cost for dispatch ordering: profiled
// wall when the plan is weighted, point count otherwise.
func (s *Scheduler) weight(k int) int64 {
	if s.Plan.Weighted {
		return s.Plan.PredictedWallNs[k]
	}
	return int64(s.Plan.Counts[k])
}

// Dir returns shard k's cache directory.
func (s *Scheduler) Dir(k int) string {
	return filepath.Join(s.WorkDir, fmt.Sprintf("s%d", k))
}

// retireAfter is how many consecutive worker faults take a worker out
// of rotation. The last live worker never retires: MaxAttempts bounds
// a hopeless shard instead.
const retireAfter = 2

// Run executes the fleet. One goroutine per worker pulls the heaviest
// pending shard it may take; a worker fault puts the shard back in
// weight order for another worker, and once every shard is done the
// shard caches merge into OutDir. A shard whose points failed is done,
// not a worker fault: Run merges it too and returns the report with an
// error wrapping sweep.ErrPoint that names every failed point. Run
// returns no report when a shard exhausts MaxAttempts or the merge
// fails.
func (s *Scheduler) Run(ctx context.Context) (*Report, error) {
	n, nw := s.Plan.Shards, len(s.Workers)
	if nw == 0 {
		return nil, fmt.Errorf("fleet: no workers")
	}
	maxAttempts := cmp.Or(max(s.MaxAttempts, 0), 3)
	retire := cmp.Or(s.retireAfter, retireAfter)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rep := &Report{Shards: make([]ShardResult, n), Dirs: make([]string, n)}
	// mu guards the state below and rep; progress lines are written
	// under it too, so Out needs no lock of its own.
	var (
		mu       sync.Mutex
		changed  = sync.NewCond(&mu) // the queue, a shard or a worker changed state
		pending  []int               // shards waiting for a worker, heaviest first
		running  int                 // shards on a worker now
		attempts = make([]int, n)
		faulted  = make([][]bool, n) // faulted[k][w]: worker w failed shard k, or retired
		retired  = make([]bool, nw)
		abort    error
	)
	// requeue inserts shard k behind every shard at least as heavy, so
	// heaviest-first dispatch is never the last thing started.
	requeue := func(k int) {
		at := slices.IndexFunc(pending, func(pk int) bool { return s.weight(k) > s.weight(pk) })
		if at < 0 {
			at = len(pending)
		}
		pending = slices.Insert(pending, at, k)
	}
	for k := range n {
		rep.Dirs[k] = s.Dir(k)
		faulted[k] = make([]bool, nw)
		requeue(k)
	}
	// next blocks until worker w may take a pending shard and claims
	// it; -1 means w is done: every shard finished, the fleet aborted,
	// or w retired. A worker does not take a shard it failed while
	// another live worker has not failed it.
	next := func(w int) int {
		mu.Lock()
		defer mu.Unlock()
		for abort == nil && !retired[w] && (len(pending) > 0 || running > 0) {
			i := slices.IndexFunc(pending, func(k int) bool {
				return !faulted[k][w] || !slices.Contains(faulted[k], false)
			})
			if i < 0 {
				changed.Wait()
				continue
			}
			k := pending[i]
			pending = slices.Delete(pending, i, i+1)
			running++
			attempts[k]++
			// A reassignment moves a shard to a worker that has not
			// failed it; a sole worker retrying its own shard is not one.
			if attempts[k] > 1 && !faulted[k][w] {
				rep.Reassigned++
			}
			s.logf("fleet: shard %d/%d -> %s (attempt %d)", k, n, s.Workers[w].Name(), attempts[k])
			return k
		}
		return -1
	}

	var wg sync.WaitGroup
	for w := range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := s.Workers[w].Name()
			faults := 0
			for k := next(w); k >= 0; k = next(w) {
				sum, wall, err := s.attempt(ctx, w, k)
				mu.Lock()
				running--
				if err == nil {
					faults = 0
					rep.Shards[k] = ShardResult{
						Shard: k, Worker: name, Attempts: attempts[k], WallNs: wall.Nanoseconds(),
						Points: sum.Points, Cold: sum.Cold, Warm: sum.Warm, Failed: sum.Failed,
					}
					s.logf("fleet: shard %d/%d done on %s in %.1fs (%d cold, %d warm)",
						k, n, name, wall.Seconds(), sum.Cold, sum.Warm)
				} else if abort == nil {
					faults++
					faulted[k][w] = true
					s.logf("fleet: shard %d/%d failed on %s: %v; reassigning", k, n, name, err)
					if attempts[k] >= maxAttempts {
						abort = fmt.Errorf("fleet: shard %d failed %d times (last worker %s): %v", k, attempts[k], name, err)
						cancel() // abandon the shards still running
					}
					requeue(k)
					if faults >= retire && rep.Retired < nw-1 { // the last live worker stays
						retired[w] = true
						for _, f := range faulted {
							f[w] = true // leave every shard to the live workers
						}
						rep.Retired++
						s.logf("fleet: worker %s retired after %d consecutive failures", name, faults)
					}
				}
				changed.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if abort != nil {
		return nil, abort
	}

	merge, err := shard.Merge(s.OutDir, rep.Dirs)
	if err != nil {
		return nil, fmt.Errorf("fleet: merging shards: %v", err)
	}
	rep.Merge = merge
	s.logf("fleet: merged %d shards into %s (%d entries imported, %d duplicates)",
		n, s.OutDir, merge.Imported, merge.Duplicates)
	return rep, rep.failed()
}

// attempt runs shard k on worker w and reads the summary it leaves; an
// error is a worker fault. A worker that reports sweep.ErrPoint and
// whose summary lists the failed points has finished the shard.
func (s *Scheduler) attempt(ctx context.Context, w, k int) (*shard.Summary, time.Duration, error) {
	start := s.now()
	err := s.Workers[w].Run(ctx, Job{
		Shard: k, Of: s.Plan.Shards, Dir: s.Dir(k),
		Manifest: s.Manifest, PlanPath: s.PlanPath,
		Full: s.Full, Jobs: s.Jobs, Verbose: s.Verbose,
	})
	wall := s.now().Sub(start)
	if err != nil && !errors.Is(err, sweep.ErrPoint) {
		return nil, wall, err
	}
	sum, rerr := shard.ReadSummary(s.Dir(k))
	if rerr != nil || (err != nil && len(sum.Failed) == 0) {
		return nil, wall, errors.Join(err, rerr)
	}
	return sum, wall, nil
}

// failed joins every shard's failed points, in shard order, into one
// error wrapping sweep.ErrPoint; nil when every point succeeded.
func (r *Report) failed() error {
	var errs []error
	for _, sr := range r.Shards {
		for _, msg := range sr.Failed {
			// Summaries hold each point's full error text; keep its
			// sweep.ErrPoint prefix once.
			errs = append(errs, fmt.Errorf("%w: %s", sweep.ErrPoint, strings.TrimPrefix(msg, sweep.ErrPoint.Error()+": ")))
		}
	}
	return errors.Join(errs...)
}
