package main

// The `accesys shard` subcommand tree: distributed sweeps. plan
// prints a deterministic partition of a manifest's expanded points as
// JSON for external schedulers; run executes one shard's slice into a
// self-contained cache directory; merge folds shard directories back
// into one canonical cache that `accesys sweep`/`equiv` warm-hit
// byte-identically to a single-process run.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/shard"
	"accesys/internal/sweep"
)

func (a *app) shardUsage() {
	fmt.Fprintf(a.stderr, "usage: accesys shard plan [-full] [-profile DIR] -shards N manifest.json\n")
	fmt.Fprintf(a.stderr, "       accesys shard run [-full] [-v] [-jobs N] [-plan FILE] -shard k/N -dir DIR manifest.json\n")
	fmt.Fprintf(a.stderr, "       accesys shard merge -out DIR sharddir ...\n")
}

// cmdShard dispatches the distributed-sweep subcommands.
func (a *app) cmdShard(args []string) int {
	if len(args) == 0 {
		a.shardUsage()
		return usageErr
	}
	switch args[0] {
	case "plan":
		return a.cmdShardPlan(args[1:])
	case "run":
		return a.cmdShardRun(args[1:])
	case "merge":
		return a.cmdShardMerge(args[1:])
	case "help", "-h", "-help", "--help":
		a.shardUsage()
		return exitOK
	}
	a.shardUsage()
	return a.errorf("unknown shard subcommand %q (want plan, run, or merge)", args[0])
}

// loadPlan expands the manifest and partitions it — the shared front
// half of plan and run. With no profile the partition hashes raw
// fingerprints, so the same manifest and shard count yield the same
// plan on every host and build; with a profile directory the partition
// additionally balances by that profile's measured walls (and then the
// plan must travel as a file — see `shard run -plan`).
func (a *app) loadPlan(path string, full bool, shards int, profileDir string) (*scenario.Scenario, []sweep.Point, *shard.Plan, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, nil, nil, err
	}
	points, err := sc.PointsFor(full)
	if err != nil {
		return nil, nil, nil, err
	}
	var prof *sweep.Profile
	if profileDir != "" {
		if prof, err = sweep.LoadProfile(profileDir); err != nil {
			return nil, nil, nil, err
		}
	}
	plan, err := shard.Partition(sc.Name, full, points, shards, prof)
	if err != nil {
		return nil, nil, nil, err
	}
	return sc, points, plan, nil
}

func (a *app) cmdShardPlan(args []string) int {
	fs := a.newFlagSet("shard plan")
	full := fs.Bool("full", false, "partition the paper-scale (-full) expansion")
	shards := fs.Int("shards", 0, "number of shards to partition into")
	profileDir := fs.String("profile", "", "balance by the wall-time profile in this cache directory")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys shard plan [-full] [-profile DIR] -shards N manifest.json\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usageErr
	}
	if *shards < 1 {
		return a.errorf("shard plan needs -shards N with N >= 1")
	}
	_, _, plan, err := a.loadPlan(fs.Arg(0), *full, *shards, *profileDir)
	if err != nil {
		return a.errorf("%v", err)
	}
	data, err := plan.Marshal()
	if err != nil {
		return a.errorf("encoding plan: %v", err)
	}
	fmt.Fprintln(a.stdout, string(data))
	return exitOK
}

// parseShardSpec splits "k/N" into its halves, requiring 0 <= k < N.
func parseShardSpec(spec string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(spec, "/")
	if ok {
		k, err = strconv.Atoi(ks)
		if err == nil {
			n, err = strconv.Atoi(ns)
		}
	}
	if !ok || err != nil || n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("-shard wants k/N with 0 <= k < N, have %q", spec)
	}
	return k, n, nil
}

func (a *app) cmdShardRun(args []string) int {
	fs := a.newFlagSet("shard run")
	full := fs.Bool("full", false, "run the paper-scale (-full) expansion")
	verbose := fs.Bool("v", false, "stream per-run progress with completion counts and ETA")
	jobs := fs.Int("jobs", 0, "parallel simulation workers (default: all CPUs)")
	spec := fs.String("shard", "", "slice to run, as k/N (0-based shard k of N)")
	dir := fs.String("dir", "", "self-contained shard cache directory (required)")
	planPath := fs.String("plan", "", "execute this serialized plan instead of recomputing the partition (required for weighted plans)")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys shard run [-full] [-v] [-jobs N] [-plan FILE] -shard k/N -dir DIR manifest.json\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usageErr
	}
	if *dir == "" {
		return a.errorf("shard run needs -dir DIR (the shard's cache directory)")
	}
	k, n, err := parseShardSpec(*spec)
	if err != nil {
		return a.errorf("%v", err)
	}

	var sc *scenario.Scenario
	var points []sweep.Point
	var plan *shard.Plan
	if *planPath != "" {
		// A serialized plan (a weighted one depends on the profile of
		// the machine that computed it, so it can only travel by file).
		// Worker.Run still revalidates every fingerprint digest against
		// the actual expansion.
		if sc, err = scenario.Load(fs.Arg(0)); err != nil {
			return a.errorf("%v", err)
		}
		if points, err = sc.PointsFor(*full); err != nil {
			return a.errorf("%v", err)
		}
		data, err := os.ReadFile(*planPath)
		if err != nil {
			return a.errorf("%v", err)
		}
		if plan, err = shard.ParsePlan(data); err != nil {
			return a.errorf("%v", err)
		}
		switch {
		case plan.Scenario != sc.Name:
			return a.errorf("plan %s partitions scenario %q, manifest declares %q", *planPath, plan.Scenario, sc.Name)
		case plan.Full != *full:
			return a.errorf("plan %s was computed with full=%v; pass the matching -full flag", *planPath, plan.Full)
		case plan.Shards != n:
			return a.errorf("plan %s has %d shards, -shard says %d", *planPath, plan.Shards, n)
		}
	} else if sc, points, plan, err = a.loadPlan(fs.Arg(0), *full, n, ""); err != nil {
		return a.errorf("%v", err)
	}
	w := &shard.Worker{Dir: *dir, Jobs: *jobs}
	if *verbose {
		label := fmt.Sprintf("%s[%d/%d]", sc.Name, k, n)
		w.OnResult = sweep.NewProgress(a.stderr, label, plan.Counts[k], *jobs).Observe
	}
	start := time.Now()
	sum, err := w.Run(plan, k, points)
	if sum == nil {
		return a.fail(err)
	}
	fmt.Fprintf(a.stdout, "shard %d/%d of %s: %d points (%d cold, %d warm) in %.1fs -> %s (salt %.12s…)\n",
		k, n, sum.Scenario, sum.Points, sum.Cold, sum.Warm, time.Since(start).Seconds(), w.Dir, sum.Salt)
	if err != nil {
		return a.fail(err)
	}
	return exitOK
}

func (a *app) cmdShardMerge(args []string) int {
	fs := a.newFlagSet("shard merge")
	out := fs.String("out", "", "merged cache directory (required; created if needed)")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys shard merge -out DIR sharddir ...\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if *out == "" {
		return a.errorf("shard merge needs -out DIR (the merged cache directory)")
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return usageErr
	}
	st, err := shard.Merge(*out, fs.Args())
	if err != nil {
		return a.errorf("%v", err)
	}
	if own, err := sweep.BinaryFingerprint(); err == nil && own != st.Salt {
		fmt.Fprintf(a.stderr, "accesys: warning: merged entries were produced by a different simulator build (salt %.12s… vs this binary's %.12s…); this binary's sweeps will re-simulate them\n",
			st.Salt, own)
	}
	already := ""
	if st.AlreadyMerged > 0 {
		already = fmt.Sprintf(" (%d shards already merged, accounting unchanged)", st.AlreadyMerged)
	}
	fmt.Fprintf(a.stdout, "merged %d shards into %s: %d points, %d entries imported, %d duplicates, %d corrupt skipped; counters: %d hits, %d misses, %d errors; fleet wall %.1fs%s\n",
		st.Shards, *out, st.Points, st.Imported, st.Duplicates, st.Corrupt,
		st.Counters.Hits, st.Counters.Misses, st.Counters.Errors,
		time.Duration(st.WallNs).Seconds(), already)
	return exitOK
}
