package main

// The `accesys fleet` subcommand: a cold multi-worker sweep as one
// command. It expands the manifest, computes a wall-time-weighted
// shard plan from the output cache's profile (rendezvous when the
// profile is cold), writes the plan to the work directory, drives
// every worker of the fleet spec concurrently with retry and
// reassignment, and merges the shard caches into the output cache —
// which a subsequent `accesys sweep` then warm-hits byte-identically
// to a single-process run. Failed points exit 1 after the merge, like
// `accesys sweep`.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"accesys/internal/fleet"
	"accesys/internal/scenario"
	"accesys/internal/shard"
	"accesys/internal/sweep"
)

func (a *app) cmdFleet(args []string) int {
	fs := a.newFlagSet("fleet")
	full := fs.Bool("full", false, "run the paper-scale (-full) expansion")
	verbose := fs.Bool("v", false, "stream per-run progress from every worker")
	jobs := fs.Int("jobs", 0, "simulation workers per fleet worker (default: CPUs split across -workers; all CPUs with -fleet)")
	workers := fs.Int("workers", 0, "run N local in-process workers (default: all CPUs; exclusive with -fleet)")
	specPath := fs.String("fleet", "", "fleet spec JSON declaring the workers (see README)")
	out := fs.String("out", defaultCacheDir(), "merged cache directory (created if needed)")
	work := fs.String("work", "", "working directory for shard caches and the plan (default: <out>/fleet)")
	attempts := fs.Int("attempts", 0, "max executions per shard before the fleet gives up (default 3)")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys fleet [-full] [-v] [-jobs N] [-workers N | -fleet spec.json] [-out DIR] [-work DIR] manifest.json\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usageErr
	}
	if *specPath != "" && *workers > 0 {
		return a.errorf("use -workers N or -fleet spec.json, not both")
	}

	spec := fleet.LocalSpec(max(1, orDefault(*workers, runtime.NumCPU())))
	if *specPath != "" {
		var err error
		if spec, err = fleet.LoadSpec(*specPath); err != nil {
			return a.errorf("%v", err)
		}
	} else if *jobs == 0 {
		// Local in-process fleets split the CPU budget across workers:
		// N workers each defaulting to a full NumCPU engine would
		// oversubscribe the machine quadratically. Explicit -fleet
		// specs keep their own per-worker jobs knob.
		*jobs = max(1, runtime.NumCPU()/len(spec.Workers))
	}

	manifest := fs.Arg(0)
	sc, err := scenario.Load(manifest)
	if err != nil {
		return a.errorf("%v", err)
	}
	points, err := sc.PointsFor(*full)
	if err != nil {
		return a.errorf("%v", err)
	}

	start := time.Now()
	rep, plan, err := fleet.Launch(context.Background(), fleet.LaunchOptions{
		Name:        sc.Name,
		Full:        *full,
		Points:      points,
		Manifest:    manifest,
		Spec:        spec,
		OutDir:      *out,
		WorkDir:     *work,
		Jobs:        *jobs,
		Verbose:     *verbose,
		Out:         a.stderr,
		MaxAttempts: *attempts,
		OnPlan: func(p *shard.Plan) {
			if p.Weighted {
				fmt.Fprintf(a.stderr, "fleet: plan weighted by %d profiled points (predicted makespan %.1fs)\n",
					p.Profiled, maxWallSeconds(p.PredictedWallNs))
			}
		},
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(a.stderr, "accesys: "+format+"\n", args...)
		},
	})
	if rep == nil {
		return a.fail(err)
	}

	for _, sr := range rep.Shards {
		note := ""
		if sr.Attempts > 1 {
			note = fmt.Sprintf(" (%d attempts)", sr.Attempts)
		}
		if len(sr.Failed) > 0 {
			note += fmt.Sprintf(" (%d failed)", len(sr.Failed))
		}
		fmt.Fprintf(a.stdout, "shard %d/%d: %d points (%d cold, %d warm) on %s in %.1fs%s\n",
			sr.Shard, plan.Shards, sr.Points, sr.Cold, sr.Warm, sr.Worker,
			time.Duration(sr.WallNs).Seconds(), note)
	}
	m := rep.Merge
	if own, err := sweep.BinaryFingerprint(); err == nil && own != m.Salt {
		fmt.Fprintf(a.stderr, "accesys: warning: merged entries were produced by a different simulator build (salt %.12s… vs this binary's %.12s…); this binary's sweeps will re-simulate them\n",
			m.Salt, own)
	}
	reassigned := ""
	if rep.Reassigned > 0 {
		reassigned = fmt.Sprintf("; %d reassignments, %d workers retired", rep.Reassigned, rep.Retired)
	}
	fmt.Fprintf(a.stdout, "fleet %s: %d shards over %d workers in %.1fs -> %s (%d entries imported, %d duplicates; %d hits, %d misses)%s\n",
		sc.Name, plan.Shards, len(spec.Workers), time.Since(start).Seconds(), *out,
		m.Imported, m.Duplicates, m.Counters.Hits, m.Counters.Misses, reassigned)
	if err != nil {
		return a.fail(err)
	}
	return exitOK
}

// orDefault returns v unless it is zero, then d.
func orDefault(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

func maxWallSeconds(walls []int64) float64 {
	var m int64
	for _, w := range walls {
		if w > m {
			m = w
		}
	}
	return time.Duration(m).Seconds()
}
