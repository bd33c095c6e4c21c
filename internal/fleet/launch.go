package fleet

// Launch is the reusable front door the `accesys fleet` subcommand and
// the serve daemon's queued jobs share: given expanded points and a
// fleet spec, it plans, provisions the work directory, and drives the
// scheduler, returning the run report alongside the plan it executed.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"accesys/internal/shard"
	"accesys/internal/sweep"
)

// LaunchOptions parameterises one fleet launch.
type LaunchOptions struct {
	// Name is the scenario name the plan is computed for; Full selects
	// the expansion mode both the plan and the workers use.
	Name string
	Full bool
	// Points is the scenario's stable point enumeration (PointsFor).
	Points []sweep.Point
	// Manifest is the scenario manifest path workers load.
	Manifest string
	// Spec declares the workers.
	Spec *Spec
	// OutDir is the canonical cache the shards merge into (created if
	// needed); its wall profile, when present, weights the partition.
	OutDir string
	// WorkDir holds shard caches and the plan (default: <OutDir>/fleet).
	WorkDir string
	// Jobs, Verbose forward the sweep execution knobs to workers.
	Jobs    int
	Verbose bool
	// Out receives scheduler and worker output; nil discards. Workers
	// write from their own goroutines, so Launch wraps Out in one
	// shared SyncWriter.
	Out io.Writer
	// MaxAttempts bounds executions per shard (default 3).
	MaxAttempts int
	// OnPlan, when non-nil, observes the computed plan after it is
	// written but before any worker dispatches.
	OnPlan func(*shard.Plan)
	// Warnf, when non-nil, receives non-fatal diagnostics (e.g. an
	// unusable wall profile degrading the plan to unweighted).
	Warnf func(format string, args ...any)
}

func (o LaunchOptions) warnf(format string, args ...any) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
	}
}

// Launch plans and runs one fleet sweep: partition the points over the
// spec's workers (wall-time-weighted when OutDir's profile knows them),
// write the plan into the work directory, execute every shard with
// retry and reassignment, and merge the shard caches into OutDir. The
// returned report and plan are non-nil exactly when every shard ran and
// merged; err is then nil, or the failed points' error wrapping
// sweep.ErrPoint.
func Launch(ctx context.Context, o LaunchOptions) (*Report, *shard.Plan, error) {
	if o.Spec == nil {
		return nil, nil, fmt.Errorf("fleet: launch needs a spec")
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, nil, err
	}
	// The output cache's profile (fed by every prior cached sweep and
	// fleet run) drives the weighted partition; a cold profile degrades
	// to the rendezvous plan. Degrading silently on a *corrupt* profile
	// would disable the advertised balancing forever, so say so.
	var prof *sweep.Profile
	if p, err := sweep.LoadProfile(o.OutDir); err == nil {
		prof = p
	} else {
		o.warnf("wall profile unusable, planning unweighted: %v", err)
	}
	plan, err := shard.Partition(o.Name, o.Full, o.Points, len(o.Spec.Workers), prof)
	if err != nil {
		return nil, nil, err
	}

	workDir := o.WorkDir
	if workDir == "" {
		workDir = filepath.Join(o.OutDir, "fleet")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	planData, err := plan.Marshal()
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: encoding plan: %v", err)
	}
	planPath := filepath.Join(workDir, "plan.json")
	if err := os.WriteFile(planPath, append(planData, '\n'), 0o644); err != nil {
		return nil, nil, fmt.Errorf("fleet: writing plan: %v", err)
	}
	if o.OnPlan != nil {
		o.OnPlan(plan)
	}

	// One locked stream carries the scheduler's and every worker's
	// output: workers write from their own goroutines.
	var stream io.Writer
	if o.Out != nil {
		stream = NewSyncWriter(o.Out)
	}
	execs, err := o.Spec.Executors(ExecutorDeps{Plan: plan, Points: o.Points, Out: stream})
	if err != nil {
		return nil, nil, err
	}
	sched := &Scheduler{
		Plan:        plan,
		Manifest:    o.Manifest,
		PlanPath:    planPath,
		Workers:     execs,
		WorkDir:     workDir,
		OutDir:      o.OutDir,
		Full:        o.Full,
		Jobs:        o.Jobs,
		Verbose:     o.Verbose,
		Out:         stream,
		MaxAttempts: o.MaxAttempts,
	}
	rep, err := sched.Run(ctx)
	if rep == nil {
		return nil, nil, err
	}
	return rep, plan, err
}
