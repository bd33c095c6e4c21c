package fleet

// Executors: the pluggable "run shard k somewhere" primitive the
// scheduler drives. Three kinds ship: in-process (a shard.Worker in
// this process — the `-workers N` single-command path), subprocess
// (re-exec this binary's `shard run` — process isolation on one
// machine), and command (an arbitrary argv template with {shard}-style
// placeholders — the ssh/k8s escape hatch; the shard directory must
// land on storage the merging process can read).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"

	"accesys/internal/shard"
	"accesys/internal/sweep"
)

// Job names one shard execution: which slice of the plan to run and
// where its self-contained cache directory lives. The manifest and
// serialized plan travel as paths — every executor kind ultimately
// drives `shard run -plan`.
type Job struct {
	// Shard and Of locate the slice in the partition.
	Shard, Of int
	// Dir is the shard's cache directory. Reassigned attempts reuse it,
	// so work a dying worker completed is served warm to its successor.
	Dir string
	// Manifest and PlanPath are the scenario and serialized plan files.
	Manifest, PlanPath string
	// Full, Jobs, and Verbose forward the sweep execution knobs.
	Full    bool
	Jobs    int
	Verbose bool
}

// Executor runs one shard job somewhere. Run must not return until the
// shard's directory holds a complete cache + shard.json (success, or
// an error wrapping sweep.ErrPoint when points failed) or the attempt
// is abandoned (any other error); the scheduler serialises calls per
// executor but runs distinct executors concurrently.
type Executor interface {
	// Name labels the worker in fleet progress output.
	Name() string
	// Run executes the job; a context cancellation should abort it.
	Run(ctx context.Context, job Job) error
}

// InProcess executes shards with a shard.Worker inside this process —
// no exec, no environment assumptions, results under this binary's
// cache salt.
type InProcess struct {
	WorkerName string
	// Plan and Points are the already-expanded scenario the jobs slice.
	Plan   *shard.Plan
	Points []sweep.Point
	// Jobs overrides the job's simulation pool size (the fleet spec's
	// per-worker knob).
	Jobs int
	// Out receives per-point progress lines for verbose jobs.
	Out io.Writer
}

func (e *InProcess) Name() string { return e.WorkerName }

func (e *InProcess) Run(ctx context.Context, job Job) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	jobs := job.Jobs
	if e.Jobs > 0 {
		jobs = e.Jobs
	}
	w := &shard.Worker{Dir: job.Dir, Jobs: jobs}
	if job.Verbose && e.Out != nil {
		label := fmt.Sprintf("%s s%d/%d", e.WorkerName, job.Shard, job.Of)
		w.OnResult = sweep.NewProgress(e.Out, label, e.Plan.Counts[job.Shard], jobs).Observe
	}
	// The simulation slice has no mid-point interruption, so run it in
	// a goroutine and abandon it on cancellation: an aborting fleet
	// reports promptly instead of waiting out the slice. The abandoned
	// worker only touches its own shard directory, and a cancelled
	// fleet never reads or merges that directory again.
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(e.Plan, job.Shard, e.Points)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shardRunArgs builds the `shard run` argument list for a job — the
// CLI contract subprocess and command workers execute.
func shardRunArgs(job Job) []string {
	args := []string{"shard", "run"}
	if job.Full {
		args = append(args, "-full")
	}
	if job.Verbose {
		args = append(args, "-v")
	}
	if job.Jobs > 0 {
		args = append(args, "-jobs", strconv.Itoa(job.Jobs))
	}
	return append(args,
		"-plan", job.PlanPath,
		"-shard", fmt.Sprintf("%d/%d", job.Shard, job.Of),
		"-dir", job.Dir,
		job.Manifest)
}

// Subprocess executes shards by re-running this binary's `shard run`
// in a child process. One failed or killed child loses only its
// current attempt.
type Subprocess struct {
	WorkerName string
	// Env entries are appended to the inherited environment.
	Env []string
	// Jobs overrides the job's simulation pool size (the fleet spec's
	// per-worker knob).
	Jobs int
	// Out receives the child's stdout and stderr.
	Out io.Writer
}

func (e *Subprocess) Name() string { return e.WorkerName }

func (e *Subprocess) Run(ctx context.Context, job Job) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("fleet: locating own binary: %v", err)
	}
	if e.Jobs > 0 {
		job.Jobs = e.Jobs
	}
	return runCommand(ctx, exe, shardRunArgs(job), e.Env, e.Out)
}

// Command executes shards through an argv template — typically an
// ssh/kubectl wrapper around `accesys shard run`. Each element has the
// placeholders {manifest} {plan} {shard} {of} {dir} {jobs} {args}
// substituted; {args} expands to the full space-separated `shard run`
// argument list for remote shells that take one command string.
type Command struct {
	WorkerName string
	Template   []string
	Env        []string
	Jobs       int
	Out        io.Writer
}

func (e *Command) Name() string { return e.WorkerName }

func (e *Command) Run(ctx context.Context, job Job) error {
	if len(e.Template) == 0 {
		return fmt.Errorf("fleet: worker %s: empty command template", e.WorkerName)
	}
	if e.Jobs > 0 {
		job.Jobs = e.Jobs
	}
	argv := make([]string, len(e.Template))
	r := strings.NewReplacer(
		"{manifest}", job.Manifest,
		"{plan}", job.PlanPath,
		"{shard}", strconv.Itoa(job.Shard),
		"{of}", strconv.Itoa(job.Of),
		"{dir}", job.Dir,
		"{jobs}", strconv.Itoa(job.Jobs),
		"{args}", strings.Join(shardRunArgs(job), " "),
	)
	for i, t := range e.Template {
		argv[i] = r.Replace(t)
	}
	return runCommand(ctx, argv[0], argv[1:], e.Env, e.Out)
}

// runCommand runs argv0 with args, streaming combined output to out.
// A flushable out (the scheduler's prefixed writers) is flushed when
// the child exits, so a killed worker's torn last line still surfaces.
// Exit status 1 — a `shard run` whose points failed, after it wrote
// the summary listing them — becomes an error wrapping sweep.ErrPoint.
func runCommand(ctx context.Context, argv0 string, args, env []string, out io.Writer) error {
	cmd := exec.CommandContext(ctx, argv0, args...)
	cmd.Env = append(os.Environ(), env...)
	if out == nil {
		out = io.Discard
	}
	if f, ok := out.(interface{ Flush() }); ok {
		defer f.Flush()
	}
	cmd.Stdout = out
	cmd.Stderr = out
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 1 {
		return fmt.Errorf("%w (%v)", sweep.ErrPoint, err)
	}
	return err
}

// SyncWriter serialises Write calls onto one underlying writer. The
// launcher funnels every output producer — the scheduler's own
// progress lines and each worker's prefixed stream, all on different
// goroutines — through a single SyncWriter, so plain destinations
// (a bytes.Buffer in tests, a log file) need no locking of their own.
type SyncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSyncWriter wraps w; a nil w discards.
func NewSyncWriter(w io.Writer) *SyncWriter {
	if w == nil {
		w = io.Discard
	}
	return &SyncWriter{w: w}
}

func (s *SyncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// prefixWriter prepends a label to every line it forwards — how one
// fleet stderr stream stays readable with several workers talking at
// once. Writes are serialised; partial lines are buffered until their
// newline arrives (Flush emits any remainder).
type prefixWriter struct {
	w      io.Writer
	prefix string

	mu  sync.Mutex
	buf []byte
}

func newPrefixWriter(w io.Writer, prefix string) *prefixWriter {
	return &prefixWriter{w: w, prefix: prefix}
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			break
		}
		line := p.buf[:i+1]
		if _, err := fmt.Fprintf(p.w, "%s%s", p.prefix, line); err != nil {
			return len(b), err
		}
		p.buf = p.buf[i+1:]
	}
	return len(b), nil
}

// Flush emits a buffered, newline-less remainder (a killed child's
// torn last line).
func (p *prefixWriter) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) > 0 {
		fmt.Fprintf(p.w, "%s%s\n", p.prefix, p.buf)
		p.buf = nil
	}
}
