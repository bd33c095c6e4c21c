package main

// accesys explore: the search-driven front-end. One manifest with an
// explore stanza in, a ranked frontier table (text/CSV) and an
// explore.json trace out. Flags override the stanza so one manifest
// serves many search configurations.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"accesys/internal/explore"
	"accesys/internal/scenario"
)

func (a *app) cmdExplore(args []string) int {
	fs := a.newFlagSet("explore")
	f := addSweepFlags(fs)
	strategy := fs.String("strategy", "", "search strategy: random or halving (default: the manifest's, else random)")
	seed := fs.Int64("seed", 0, "search RNG seed (default: the manifest's, else 0); runs are deterministic per (manifest, seed, budget)")
	budget := fs.String("budget", "", "stopping rule: a point count (\"32\") or a predicted-wall duration (\"2m\"); default: the manifest's, else 32")
	tracePath := fs.String("trace", "explore.json", "write the generation-by-generation search trace to this file (\"\" = skip)")
	csvPath := fs.String("csv", "", "also write the frontier table as CSV to this file")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys explore [-full] [-v] [-jobs N] [-cache dir] [-nocache] [-strategy name] [-seed N] [-budget N|dur] [-trace file] [-csv file] manifest.json\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usageErr
	}

	stop, code := a.startProfiles(f)
	if code >= 0 {
		return code
	}
	defer stop()

	sc, err := scenario.Load(fs.Arg(0))
	if err != nil {
		return a.errorf("%v", err)
	}
	opt := a.options(f)
	p := explore.Params{Strategy: *strategy, Budget: *budget}
	// Override the manifest's seed only when -seed was explicitly set
	// (no sentinel value: every int64, negatives included, is a valid
	// seed).
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "seed" {
			p.Seed = seed
		}
	})
	rep, err := explore.Run(sc, opt, p)
	if err != nil {
		// Failed points still flush what the good points counted and
		// timed, as sweep and equiv do.
		code := a.fail(err)
		if code == exitFail {
			a.finish(opt)
		}
		return code
	}
	rep.Frontier.Fprint(a.stdout)
	if *csvPath != "" {
		if code := a.writeCSV(*csvPath, rep.Frontier); code != exitOK {
			return code
		}
	}
	if *tracePath != "" {
		data, err := rep.Trace.Marshal()
		if err != nil {
			return a.errorf("encoding trace: %v", err)
		}
		if dir := filepath.Dir(*tracePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return a.errorf("%v", err)
			}
		}
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			return a.errorf("writing trace: %v", err)
		}
	}
	a.finish(opt)
	return exitOK
}
