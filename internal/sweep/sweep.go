// Package sweep is the design-space exploration engine: it fans
// independent simulation runs out over a worker pool, preserves
// deterministic result ordering regardless of completion order, and
// memoises completed runs in an on-disk cache keyed by a content hash
// of each run's configuration.
//
// Every simulated system is single-threaded and self-contained (one
// EventQueue, one stats registry), so independent runs parallelise
// trivially; the engine only guarantees that the slice it returns is
// ordered by declaration, never by completion.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"accesys/internal/sim"
)

// Outcome is the recorded result of one sweep point: the primary
// simulated duration plus any named secondary metrics (extracted
// statistics). Outcomes must be plain data — they round-trip through
// the JSON result cache.
type Outcome struct {
	Dur    sim.Tick           `json:"dur"`
	Values map[string]float64 `json:"values,omitempty"`
	// Err, set when the point failed, names its key. Never cached.
	Err error `json:"-"`
}

// ErrPoint is wrapped by every failed point's Err, telling a point's
// failure apart from an error in the request around it.
var ErrPoint = errors.New("sweep: point failed")

// Failed joins the errors of the failed outcomes in declaration order;
// nil when every point succeeded.
func Failed(outs []Outcome) error {
	errs := make([]error, len(outs))
	for i, o := range outs {
		errs[i] = o.Err
	}
	return errors.Join(errs...) // drops the nil errors
}

// Value returns the named secondary metric, or 0 when absent.
func (o Outcome) Value(name string) float64 { return o.Values[name] }

// Tick returns the named secondary metric as a simulation time.
func (o Outcome) Tick(name string) sim.Tick { return sim.Tick(o.Values[name]) }

// Point is one run of a design-space sweep.
type Point struct {
	// Key labels the point in progress output; it should be unique
	// within one sweep.
	Key string
	// Fingerprint is the content hash material identifying the run's
	// full configuration; equal fingerprints mean interchangeable
	// outcomes. Build it with Fingerprint. Empty disables caching for
	// this point.
	Fingerprint string
	// Run executes the simulation and returns its outcome. It must be
	// self-contained: engine workers invoke Run concurrently.
	Run func() Outcome
}

// Result reports one completed point to the progress callback.
type Result struct {
	// Index is the point's position in the declared sweep.
	Index int
	// Key echoes the point's label.
	Key string
	// Outcome is the run's result.
	Outcome Outcome
	// Cached reports whether the outcome came from the result cache.
	Cached bool
	// Shared reports that the outcome was adopted from a concurrent
	// execution of the same point (in-flight dedup) rather than run or
	// read from the cache here.
	Shared bool
	// Wall is the host-side execution time (zero for cache hits and
	// shared outcomes).
	Wall time.Duration
}

// Engine executes sweeps. The zero value runs with one worker per CPU
// and no cache.
type Engine struct {
	// Jobs bounds the worker pool; <= 0 means runtime.NumCPU().
	Jobs int
	// Cache memoises outcomes, across processes for a directory cache
	// and within this one for Memory(); nil disables.
	Cache *Cache
	// OnResult, when non-nil, observes each completed point. Calls are
	// serialised but arrive in completion order, not declaration order.
	OnResult func(Result)
	// Profile, when non-nil, records each cold point's measured wall
	// time (EWMA keyed by fingerprint digest) — the weighted shard
	// partitioner's input. Flush it after the run to persist.
	Profile *Profile
	// Flight, when non-nil, coalesces concurrent executions of
	// identical points (keyed by fingerprint digest) across every
	// engine sharing it: one engine simulates, the others run their
	// remaining points first, then adopt the outcome and report it
	// with Result.Shared set. Cache lookups move inside the flight, so
	// for deduplicated points hits+misses count leaders only. A
	// Flight from NewFlight also bounds the cold simulations all its
	// engines run at once; Jobs then only bounds this engine's share.
	Flight *Flight
	// Clock supplies the wall-clock readings behind Result.Wall — the
	// sole time source on the ETA path, injectable so progress output
	// is deterministic under test. Nil means time.Now.
	Clock func() time.Time

	mu sync.Mutex
}

// now reads the engine's clock.
func (e *Engine) now() time.Time {
	if e.Clock != nil {
		return e.Clock()
	}
	return time.Now()
}

// workers is the engine's pool size rule: jobs workers (<= 0 means
// one per CPU), never more than the n points, and at least one.
func workers(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return max(1, min(jobs, n))
}

func (e *Engine) report(r Result) {
	if e.OnResult == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.OnResult(r)
}

// runPoint executes (or recalls) one point and reports it. A point
// another engine is already leading is not waited on: runPoint keeps
// that flight's call in joined[i] instead, for Run to adopt once
// everything else has run.
func (e *Engine) runPoint(i int, p Point, joined []*Call) Outcome {
	var res Result
	if e.Flight == nil || p.Fingerprint == "" {
		res = e.execute(i, p, "")
	} else {
		// Dedup path: the whole lookup-or-simulate cycle runs inside
		// the flight, so a concurrent engine that misses on the same
		// point adopts this one's outcome instead of simulating it
		// again — and a leader that starts just after a previous flight
		// for the key landed still sees that result as an ordinary
		// cache hit (execute Puts before the call lands). The digest is
		// hashed once here and shared with the profile observation. A
		// failed outcome reaches the joiners as it is.
		dig := Digest(p.Fingerprint)
		c, led := e.Flight.Join(dig)
		if !led {
			joined[i] = c
			return Outcome{}
		}
		res = e.execute(i, p, dig)
		e.Flight.Land(c, res.Outcome)
	}
	e.report(res)
	return res.Outcome
}

// execute runs or recalls one point without reporting — runPoint picks
// the Result it publishes. dig, when non-empty, is the point's
// already-computed fingerprint digest (memoized by runPoint so the
// flight and the profile share one hash). It is the one place a point
// runs, so it is where a panicking point becomes a failed outcome.
func (e *Engine) execute(i int, p Point, dig string) Result {
	var ref Ref
	if e.Cache != nil && p.Fingerprint != "" {
		ref = e.Cache.Ref(p.Fingerprint)
		if out, ok := e.Cache.getRef(&ref); ok {
			return Result{Index: i, Key: p.Key, Outcome: out, Cached: true}
		}
	}
	// A cold simulation holds one of the Flight's slots; the wall
	// clock starts once the slot is held, so Wall never counts the
	// wait for one.
	e.Flight.acquire()
	start := e.now()
	out := func() (out Outcome) {
		defer func() {
			if r := recover(); r != nil {
				out = Outcome{Err: fmt.Errorf("%w: %q panicked: %v", ErrPoint, p.Key, r)}
			}
		}()
		return p.Run()
	}()
	wall := e.now().Sub(start)
	e.Flight.release()
	if out.Err == nil && p.Fingerprint != "" {
		if e.Cache != nil {
			e.Cache.PutRef(ref, out)
		}
		if e.Profile != nil {
			if dig == "" {
				dig = Digest(p.Fingerprint)
			}
			e.Profile.ObserveDigest(dig, wall)
		}
	}
	return Result{Index: i, Key: p.Key, Outcome: out, Wall: wall}
}

// Run executes every point and returns their outcomes in declaration
// order. With Jobs > 1 points run concurrently. A failed point fails
// only its own outcome: every sibling still runs (see Failed). Points
// another engine is simulating through the shared Flight are adopted,
// and reported Shared, only after every other point has run.
func (e *Engine) Run(points []Point) []Outcome {
	outs := make([]Outcome, len(points))
	var joined []*Call // by point index: flights another engine leads
	if e.Flight != nil {
		joined = make([]*Call, len(points))
	}
	if pool := workers(e.Jobs, len(points)); pool == 1 {
		for i, p := range points {
			outs[i] = e.runPoint(i, p, joined)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		// joined goes in as an argument: a closure capturing the
		// variable would move it to the heap on every Run.
		work := func(joined []*Call) {
			defer wg.Done()
			for i := range idx {
				outs[i] = e.runPoint(i, points[i], joined)
			}
		}
		for range pool {
			wg.Add(1)
			go work(joined)
		}
		for i := range points {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	// Every call this engine led has landed by now, and a leader
	// waits on nothing but a simulation slot, which every simulation
	// gives back, so these waits cannot deadlock.
	for i, c := range joined {
		if c != nil {
			outs[i] = c.Wait()
			e.report(Result{Index: i, Key: points[i].Key, Outcome: outs[i], Shared: true})
		}
	}
	return outs
}
