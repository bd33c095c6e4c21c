package main

// The `accesys serve` subcommand: the sweep-as-a-service daemon. It
// opens the shared result cache and wall profile once, starts the
// serve.Server's bounded job queue, and exposes the HTTP/JSON API
// until SIGINT/SIGTERM, then drains gracefully — running jobs finish,
// queued jobs fail fast, and the cache counters and profile flush.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"accesys/internal/fleet"
	"accesys/internal/serve"
	"accesys/internal/sweep"
)

func (a *app) cmdServe(args []string) int {
	fs := a.newFlagSet("serve")
	addr := fs.String("addr", "localhost:8044", "listen address (host:port; port 0 picks a free port)")
	cacheDir := fs.String("cache", defaultCacheDir(), "shared result cache directory")
	jobs := fs.Int("jobs", 0, "the daemon runs jobs × concurrency simulations at once, in slots shared by every running job (0 = one per CPU)")
	concurrency := fs.Int("concurrency", 0, "jobs running at once (0 = serve default)")
	queue := fs.Int("queue", 0, "max jobs queued but not running before 503 (0 = serve default)")
	quota := fs.Int("quota", 0, "max unfinished jobs per client before 429 (0 = serve default)")
	retain := fs.Int("retain", 0, "max finished jobs kept pollable before the oldest are evicted (0 = serve default)")
	specPath := fs.String("fleet", "", "fleet spec JSON: run jobs through the fleet scheduler instead of in-process")
	gcInterval := fs.Duration("gcinterval", 0, "periodically GC the cache at this interval (0 = never)")
	gcMaxAge := fs.Duration("gcmaxage", 30*24*time.Hour, "with -gcinterval: evict entries older than this (0 = no age bound)")
	gcMaxEntries := fs.Int("gcmaxentries", 0, "with -gcinterval: keep at most this many newest entries (0 = unbounded)")
	verbose := fs.Bool("v", false, "log job lifecycle and GC diagnostics")
	fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: accesys serve [-addr host:port] [-cache dir] [-jobs N] [-concurrency N] [-queue N] [-quota N] [-retain N] [-fleet spec.json] [-gcinterval d] [-v]\n")
		fs.PrintDefaults()
	}
	if code := parse(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return usageErr
	}

	cache, err := sweep.OpenSalted(*cacheDir)
	if err != nil {
		return a.errorf("%v", err)
	}
	cfg := serve.Config{
		Cache:        cache,
		Jobs:         *jobs,
		Concurrency:  *concurrency,
		QueueLimit:   *queue,
		ClientQuota:  *quota,
		JobRetention: *retain,
		GCInterval:   *gcInterval,
		GCMaxAge:     *gcMaxAge,
		GCMaxEntries: *gcMaxEntries,
	}
	if prof, err := sweep.LoadProfile(cache.Dir()); err == nil {
		cfg.Profile = prof
	} else {
		fmt.Fprintf(a.stderr, "accesys: wall profile disabled: %v\n", err)
	}
	if *specPath != "" {
		spec, err := fleet.LoadSpec(*specPath)
		if err != nil {
			return a.errorf("%v", err)
		}
		cfg.FleetSpec = spec
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(a.stderr, "accesys: "+format+"\n", args...)
		}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return a.errorf("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return a.errorf("%v", err)
	}
	// The test harness (and anyone scripting against port 0) parses the
	// bound address off this line.
	fmt.Fprintf(a.stderr, "accesys: serving on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		sig := <-sigs
		fmt.Fprintf(a.stderr, "accesys: %s received, draining\n", sig)
		// Stop accepting connections first, then drain the job queue;
		// in-flight HTTP requests get a short grace period.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()

	serveErr := hs.Serve(ln)
	if closeErr := srv.Close(); closeErr != nil {
		fmt.Fprintf(a.stderr, "accesys: flushing state at shutdown: %v\n", closeErr)
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		return a.errorf("%v", serveErr)
	}
	fmt.Fprintf(a.stderr, "accesys: serve drained\n")
	return exitOK
}
