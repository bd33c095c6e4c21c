// Command accesys regenerates the paper's evaluation artifacts, runs
// manifest-driven sweeps, and audits timing-vs-analytic equivalence.
//
// Usage:
//
//	accesys run [-full] [-v] [-jobs N] [-cache dir] [-nocache] [experiment ...]
//	accesys sweep [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-csv file] manifest.json ...
//	accesys equiv [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-tol f] [-warn f] [-json] manifest.json|experiment ...
//	accesys explore [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-strategy name] [-seed N] [-budget N|dur] [-trace file] [-csv file] manifest.json
//	accesys shard plan [-full] [-profile DIR] -shards N manifest.json
//	accesys shard run [-full] [-v] [-jobs N] [-plan FILE] -shard k/N -dir DIR manifest.json
//	accesys shard merge -out DIR sharddir ...
//	accesys fleet [-full] [-v] [-jobs N] [-workers N | -fleet spec.json] [-out DIR] [-work DIR] manifest.json
//	accesys serve [-addr host:port] [-cache dir] [-jobs N] [-concurrency N] [-queue N] [-quota N] [-fleet spec.json] [-gcinterval d] [-v]
//	accesys cachestats [-cache dir] [-gc] [-maxage d] [-maxentries n]
//	accesys list
//
// Invoking accesys without a subcommand behaves like `accesys run`
// (the historical interface), so `accesys -full fig4` keeps working.
//
// run executes built-in experiments in paper order (all of them by
// default; `accesys list` prints the ids: fig2 fig3 fig4 fig5 fig6
// tab4 fig7 fig8 fig9). Each is a registry scenario run exactly as
// sweep runs a manifest, with the figure's own row shaping and
// shape-check notes.
//
// sweep loads declarative scenario manifests (JSON; see README.md
// "Manifest-driven sweeps" for the schema) and runs their matrices —
// new scenario matrices need no new Go. A manifest encoding of a
// built-in matrix emits rows byte-identical to the built-in
// experiment, because both reach the same renderer. For run and sweep
// alike, a failed point is reported by key and the command exits 1
// once the cache counters and wall profile are flushed.
//
// equiv is the cross-backend equivalence harness: it runs the same
// expanded points through the timing simulation and the closed-form
// analytic models (parameterized from the same configuration) and
// reports per-point relative divergence against tolerance bands
// (pass / warn / fail). Arguments are manifests or built-in
// experiment ids; warm cache outcomes satisfy the timing side without
// re-simulating. Exit status 1 when any point diverges beyond the
// fail band. -json emits machine-readable reports instead of tables.
//
// explore is the search-driven front-end over a manifest's axis
// space: instead of sweeping the exhaustive cross product, it runs
// the manifest's declared optimization (an `explore` stanza with an
// objective, constraints, strategy, seed, and budget), screening
// candidate generations through the ~free analytic backend and
// promoting only the promising fraction to timing simulation. The
// ranked frontier prints as a table (plus -csv), and -trace records
// every generation — candidate, fidelity, objective, promoted — as
// JSON. Searches are deterministic per (manifest, seed, budget) and
// compose with the warm cache: re-exploring promotes the same points
// and simulates none of them cold. See README.md "Design-space
// exploration" for the stanza schema.
//
// Every run matrix executes on the parallel sweep engine: -jobs
// bounds the worker pool (default: all CPUs) and completed runs are
// memoised in an on-disk cache keyed by the run's full configuration,
// so repeated invocations skip untouched design points (-nocache: in
// memory, for one process). Parallel and sequential execution produce
// identical rows. With -v each completed point prints a k/n progress
// line with an ETA derived from measured per-point wall times.
//
// shard distributes a manifest's matrix across worker processes or
// machines: plan prints the deterministic partition (stable rendezvous
// hashing over configuration fingerprints) as JSON for external
// schedulers, run executes one shard's slice into a self-contained
// cache directory plus a shard.json summary, and merge folds shard
// directories into one canonical cache — verifying that all shards
// were produced by one simulator build (binary salt), detecting
// fingerprint collisions with differing payloads, and summing
// persisted counters. A merged cache warm-hits a subsequent
// `accesys sweep`/`equiv` byte-identically to a single-process run.
//
// fleet is the shard launcher folded into one command: it computes a
// shard plan weighted by the output cache's wall-time profile
// (profile.json, fed by every cached sweep), drives `shard run` on N
// workers concurrently — in-process goroutines (-workers), or the
// subprocess/ssh-style workers a fleet spec declares (-fleet) —
// reassigns shards away from failed workers (a killed worker's
// completed points are served warm to its successor, because shard
// cache directories survive attempts), and merges everything into the
// output cache.
//
// serve runs the sweep-as-a-service daemon: an HTTP/JSON API that
// accepts manifest submissions (POST /sweeps, async — 202 + job id),
// serves status polls, rendered rows (json/csv/text), and a streaming
// ndjson progress feed, all against one shared warm cache. Concurrent
// jobs submitting overlapping manifests coalesce on in-flight points,
// so the overlap is simulated exactly once; a full queue answers 503
// and an over-quota client 429, both with Retry-After. See README.md
// "Sweep as a service" for the API schema.
//
// cachestats reports the result cache's on-disk footprint (entries,
// bytes) and cumulative hit/miss/error counters, and with -gc evicts
// entries by age (-maxage) and count (-maxentries).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"accesys/internal/equiv"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// defaultCacheDir places the result cache under the user cache root,
// falling back to a working-directory folder when none exists.
func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "accesys")
	}
	return ".accesys-cache"
}

// app carries the command's output streams so tests can run any
// subcommand in-process and assert on exit codes and output.
type app struct {
	stdout io.Writer
	stderr io.Writer
}

// Exit codes: 0 success, 1 failed points or a failed equivalence audit
// (points diverged beyond the fail band), 2 usage or execution error.
const (
	exitOK   = 0
	exitFail = 1
	usageErr = 2
)

func (a *app) errorf(format string, args ...any) int {
	fmt.Fprintf(a.stderr, "accesys: "+format+"\n", args...)
	return usageErr
}

// fail prints err and returns its exit code: exitFail for a run's
// failed points (sweep.Failed), usageErr for anything else.
func (a *app) fail(err error) int {
	fmt.Fprintf(a.stderr, "accesys: %v\n", err)
	if errors.Is(err, sweep.ErrPoint) {
		return exitFail
	}
	return usageErr
}

// sweepFlags are the execution flags shared by run, sweep, and equiv.
type sweepFlags struct {
	full       *bool
	verbose    *bool
	jobs       *int
	cache      *string
	nocache    *bool
	cpuprofile *string
	memprofile *string
}

func addSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		full:       fs.Bool("full", false, "run paper-scale matrix sizes (2048); slower"),
		verbose:    fs.Bool("v", false, "stream per-run progress with completion counts and ETA"),
		jobs:       fs.Int("jobs", runtime.NumCPU(), "parallel simulation workers per experiment"),
		cache:      fs.String("cache", defaultCacheDir(), "result cache directory"),
		nocache:    fs.Bool("nocache", false, "disable the on-disk result cache"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile of the whole command to this file"),
		memprofile: fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit"),
	}
}

// startProfiles begins CPU profiling when -cpuprofile was given. The
// returned stop function finishes the CPU profile and writes the
// -memprofile heap snapshot; defer it around the workload. A negative
// code means continue; otherwise exit with it.
func (a *app) startProfiles(f *sweepFlags) (stop func(), code int) {
	stopCPU := func() {}
	if *f.cpuprofile != "" {
		w, err := os.Create(*f.cpuprofile)
		if err != nil {
			return func() {}, a.errorf("%v", err)
		}
		if err := pprof.StartCPUProfile(w); err != nil {
			w.Close()
			return func() {}, a.errorf("starting CPU profile: %v", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			w.Close()
		}
	}
	memPath := *f.memprofile
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		w, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(a.stderr, "accesys: heap profile: %v\n", err)
			return
		}
		// A forced GC first so the snapshot shows live retained heap,
		// not garbage awaiting collection.
		runtime.GC()
		if err := pprof.WriteHeapProfile(w); err != nil {
			fmt.Fprintf(a.stderr, "accesys: heap profile: %v\n", err)
		}
		w.Close()
	}, -1
}

// options opens the disk cache (unless disabled, else a memory-only
// one) and assembles the shared execution options.
func (a *app) options(f *sweepFlags) scenario.Options {
	opt := scenario.Options{
		Full: *f.full, Verbose: *f.verbose, Out: a.stderr, Jobs: *f.jobs,
		Cache: sweep.Memory(),
	}
	if !*f.nocache {
		cache, err := sweep.OpenSalted(*f.cache)
		if err != nil {
			fmt.Fprintf(a.stderr, "accesys: on-disk result cache disabled: %v\n", err)
		} else {
			opt.Cache = cache
			// The wall-time profile rides along with the cache: every
			// cached sweep also learns how long its points take, which
			// later feeds the fleet launcher's weighted partition. A
			// corrupt profile only costs future balancing, but silently
			// never repairing it would cost it forever.
			if prof, err := sweep.LoadProfile(cache.Dir()); err == nil {
				opt.Profile = prof
			} else {
				fmt.Fprintf(a.stderr, "accesys: wall profile disabled: %v\n", err)
			}
		}
	}
	return opt
}

// finish folds a disk cache's counters into the persisted totals
// (backing `accesys cachestats`) and reports them when verbose.
func (a *app) finish(opt scenario.Options) {
	if opt.Cache.Dir() == "" {
		return
	}
	hits, misses, errors := opt.Cache.Stats()
	if opt.Verbose {
		fmt.Fprintf(a.stderr, "accesys: cache %s: %d hits, %d misses, %d errors\n",
			opt.Cache.Dir(), hits, misses, errors)
	}
	if err := opt.Cache.FlushState(opt.Profile); err != nil {
		fmt.Fprintf(a.stderr, "accesys: persisting cache counters and wall profile: %v\n", err)
	}
}

// newFlagSet builds a flag set that reports usage on the app's stderr
// without exiting the process.
func (a *app) newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	return fs
}

// parse runs the flag set and maps the outcome to an exit code: -1 to
// continue, exitOK for an explicit -h/-help (usage was printed, and
// flag.ExitOnError historically exited 0 there), usageErr for bad
// flags.
func parse(fs *flag.FlagSet, args []string) int {
	switch err := fs.Parse(args); {
	case err == nil:
		return -1
	case errors.Is(err, flag.ErrHelp):
		return exitOK
	default:
		return usageErr
	}
}

func (a *app) cmdRun(args []string) int {
	fs := a.newFlagSet("run")
	f := addSweepFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys run [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-cpuprofile file] [-memprofile file] [experiment ...]\n")
		fmt.Fprintf(a.stderr, "experiments: %s (default: all)\n", strings.Join(scenario.BuiltinNames(), " "))
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = scenario.BuiltinNames()
	}
	return a.runScenarios(f, ids, "", func(id string) (*scenario.Scenario, error) {
		if sc, ok := scenario.Builtin(id); ok {
			return sc, nil
		}
		return nil, fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(scenario.BuiltinNames(), " "))
	})
}

func (a *app) cmdSweep(args []string) int {
	fs := a.newFlagSet("sweep")
	f := addSweepFlags(fs)
	csvPath := fs.String("csv", "", "also write the table as CSV to this file (single manifest only)")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys sweep [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-csv file] [-cpuprofile file] [-memprofile file] manifest.json ...\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}

	manifests := fs.Args()
	if len(manifests) == 0 {
		fs.Usage()
		return usageErr
	}
	if *csvPath != "" && len(manifests) != 1 {
		return a.errorf("-csv needs exactly one manifest, have %d", len(manifests))
	}
	return a.runScenarios(f, manifests, *csvPath, scenario.Load)
}

// runScenarios is run's and sweep's shared loop: resolve each target,
// run it, print its table with a wall-time note (and the CSV when
// asked), then flush the cache counters and wall profile. A failed
// point moves on to the next target and exits 1 after the flush; an
// unresolvable target exits 2 at once.
func (a *app) runScenarios(f *sweepFlags, targets []string, csvPath string, resolve func(string) (*scenario.Scenario, error)) int {
	stop, code := a.startProfiles(f)
	if code >= 0 {
		return code
	}
	defer stop()

	opt := a.options(f)
	code = exitOK
	for _, target := range targets {
		sc, err := resolve(target)
		if err != nil {
			return a.errorf("%v", err)
		}
		start := time.Now()
		res, err := sc.Run(opt)
		if err != nil {
			if code = a.fail(err); code == usageErr {
				return code
			}
			continue
		}
		res.Note("wall time: %.1fs", time.Since(start).Seconds())
		res.Fprint(a.stdout)
		if csvPath != "" {
			if code := a.writeCSV(csvPath, res); code != exitOK {
				return code
			}
		}
	}
	a.finish(opt)
	return code
}

func (a *app) writeCSV(path string, res *scenario.Result) int {
	w, err := os.Create(path)
	if err != nil {
		return a.errorf("%v", err)
	}
	if err := res.WriteCSV(w); err != nil {
		w.Close()
		return a.errorf("writing %s: %v", path, err)
	}
	if err := w.Close(); err != nil {
		return a.errorf("writing %s: %v", path, err)
	}
	return exitOK
}

// cmdEquiv audits scenarios (manifests or built-in experiment ids)
// with the cross-backend equivalence harness.
func (a *app) cmdEquiv(args []string) int {
	fs := a.newFlagSet("equiv")
	f := addSweepFlags(fs)
	tol := fs.Float64("tol", 0, "fail when relative divergence exceeds this (0 = scenario/default bands)")
	warn := fs.Float64("warn", 0, "warn when relative divergence exceeds this (0 = scenario/default bands)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON reports instead of tables")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys equiv [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-tol f] [-warn f] [-json] manifest.json|experiment ...\n")
		fmt.Fprintf(a.stderr, "experiments: %s\n", strings.Join(scenario.BuiltinNames(), " "))
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	targets := fs.Args()
	if len(targets) == 0 {
		fs.Usage()
		return usageErr
	}
	if *tol < 0 || *warn < 0 || (*tol > 0 && *warn > *tol) {
		return a.errorf("tolerances must satisfy 0 <= warn <= tol")
	}

	opt := a.options(f)
	cli := equiv.Tolerances{Tol: *tol, Warn: *warn}
	failed := false
	var reports []*equiv.Report
	for _, target := range targets {
		sc, ok := scenario.Builtin(target)
		if !ok {
			var err error
			sc, err = scenario.Load(target)
			if err != nil {
				return a.errorf("%q is neither a built-in experiment nor a loadable manifest: %v", target, err)
			}
		}
		rep, err := equiv.Run(sc, opt, cli)
		if err != nil {
			if a.fail(err) == usageErr {
				return usageErr
			}
			failed = true
			continue
		}
		reports = append(reports, rep)
		if !rep.OK() {
			failed = true
		}
		if !*asJSON {
			rep.Result().Fprint(a.stdout)
		}
	}
	if *asJSON {
		if code := a.printJSON(reports); code != exitOK {
			return code
		}
	}
	a.finish(opt)
	if failed {
		return exitFail
	}
	return exitOK
}

// printJSON emits the reports as one JSON array, all or nothing — a
// failed encode must never leave partial output on stdout.
func (a *app) printJSON(reports []*equiv.Report) int {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return a.errorf("encoding reports: %v", err)
	}
	fmt.Fprintln(a.stdout, string(data))
	return exitOK
}

func (a *app) cmdCachestats(args []string) int {
	fs := a.newFlagSet("cachestats")
	dir := fs.String("cache", defaultCacheDir(), "result cache directory")
	gc := fs.Bool("gc", false, "evict entries by age and count")
	maxAge := fs.Duration("maxage", 30*24*time.Hour, "with -gc: evict entries older than this (0 = no age bound)")
	maxEntries := fs.Int("maxentries", 0, "with -gc: keep at most this many newest entries (0 = unbounded)")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys cachestats [-cache dir] [-gc] [-maxage d] [-maxentries n]\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return usageErr
	}

	// Open unsalted: inspection and GC span entries from every binary
	// that ever shared the directory.
	cache, err := sweep.Open(*dir)
	if err != nil {
		return a.errorf("%v", err)
	}

	if *gc {
		res, err := cache.GC(*maxAge, *maxEntries)
		if err != nil {
			return a.errorf("gc: %v", err)
		}
		fmt.Fprintf(a.stdout, "gc: scanned %d entries, evicted %d (%d bytes), removed %d stale temp files\n",
			res.Scanned, res.Evicted, res.EvictedBytes, res.Temps)
	}

	entries, bytes, err := cache.Usage()
	if err != nil {
		return a.errorf("%v", err)
	}
	counters, err := cache.Counters()
	if err != nil {
		return a.errorf("%v", err)
	}
	fmt.Fprintf(a.stdout, "cache %s\n", cache.Dir())
	fmt.Fprintf(a.stdout, "  entries: %d\n", entries)
	fmt.Fprintf(a.stdout, "  bytes:   %d\n", bytes)
	fmt.Fprintf(a.stdout, "  hits:    %d\n", counters.Hits)
	fmt.Fprintf(a.stdout, "  misses:  %d\n", counters.Misses)
	fmt.Fprintf(a.stdout, "  errors:  %d\n", counters.Errors)
	return exitOK
}

func (a *app) cmdList(args []string) int {
	if len(args) != 0 {
		return a.errorf("list takes no arguments")
	}
	for _, id := range scenario.BuiltinNames() {
		fmt.Fprintln(a.stdout, id)
	}
	return exitOK
}

// main dispatches a subcommand; a bare flag list runs `run` (the
// historical interface).
func (a *app) main(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return a.cmdRun(args[1:])
		case "sweep":
			return a.cmdSweep(args[1:])
		case "equiv":
			return a.cmdEquiv(args[1:])
		case "explore":
			return a.cmdExplore(args[1:])
		case "shard":
			return a.cmdShard(args[1:])
		case "fleet":
			return a.cmdFleet(args[1:])
		case "serve":
			return a.cmdServe(args[1:])
		case "cachestats":
			return a.cmdCachestats(args[1:])
		case "list":
			return a.cmdList(args[1:])
		case "help", "-h", "-help", "--help":
			fmt.Fprintf(a.stderr, "usage: accesys [run|sweep|equiv|explore|shard|fleet|serve|cachestats|list] ...\n")
			fmt.Fprintf(a.stderr, "run 'accesys <command> -h' for command flags; a bare flag list runs `run`\n")
			return usageErr
		}
	}
	return a.cmdRun(args)
}

func main() {
	a := &app{stdout: os.Stdout, stderr: os.Stderr}
	os.Exit(a.main(os.Args[1:]))
}
