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
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accesys/internal/sim"
)

// fingerprintVersion salts every fingerprint; bump it to invalidate
// all cached results when the encoding changes incompatibly.
const fingerprintVersion = "sweep/v1"

// Outcome is the recorded result of one sweep point: the primary
// simulated duration plus any named secondary metrics (extracted
// statistics). Outcomes must be plain data — they round-trip through
// the JSON result cache.
type Outcome struct {
	Dur    sim.Tick           `json:"dur"`
	Values map[string]float64 `json:"values,omitempty"`
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
	// engine sharing it: one engine simulates, the others adopt the
	// outcome and report it with Result.Shared set. Cache lookups move
	// inside the flight, so for deduplicated points hits+misses count
	// leaders only.
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

func (e *Engine) jobs() int {
	if e.Jobs > 0 {
		return e.Jobs
	}
	return runtime.NumCPU()
}

// Workers returns the pool size the engine would use for a sweep of n
// points — what an ETA estimate should divide by.
func (e *Engine) Workers(n int) int {
	w := e.jobs()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (e *Engine) report(r Result) {
	if e.OnResult == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.OnResult(r)
}

// runPoint executes (or recalls, or adopts) one point, wrapping any
// panic with the point's key so every execution path reports failures
// uniformly.
func (e *Engine) runPoint(i int, p Point) Outcome {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sweep: point %q panicked: %v", p.Key, r))
		}
	}()
	if e.Flight == nil || p.Fingerprint == "" {
		res := e.execute(i, p, "")
		e.report(res)
		return res.Outcome
	}
	// Dedup path: the whole lookup-or-simulate cycle runs inside the
	// flight, so a concurrent engine that misses on the same point
	// waits for this one instead of simulating it again — and a leader
	// that starts just after a previous flight for the key landed
	// still sees that result as an ordinary cache hit. The digest is
	// hashed once here and shared with the profile observation.
	var res Result
	dig := Digest(p.Fingerprint)
	out, led := e.Flight.Do(dig, func() Outcome {
		res = e.execute(i, p, dig)
		return res.Outcome
	})
	if !led {
		res = Result{Index: i, Key: p.Key, Outcome: out, Shared: true}
	}
	e.report(res)
	return out
}

// execute runs or recalls one point without reporting — runPoint picks
// the Result it publishes. dig, when non-empty, is the point's
// already-computed fingerprint digest (memoized by runPoint so the
// flight and the profile share one hash).
func (e *Engine) execute(i int, p Point, dig string) Result {
	var ref Ref
	if e.Cache != nil && p.Fingerprint != "" {
		ref = e.Cache.Ref(p.Fingerprint)
		if out, ok := e.Cache.getRef(&ref); ok {
			return Result{Index: i, Key: p.Key, Outcome: out, Cached: true}
		}
	}
	start := e.now()
	out := p.Run()
	wall := e.now().Sub(start)
	if e.Cache != nil && p.Fingerprint != "" {
		e.Cache.PutRef(ref, out)
	}
	if e.Profile != nil && p.Fingerprint != "" {
		if dig == "" {
			dig = Digest(p.Fingerprint)
		}
		e.Profile.ObserveDigest(dig, wall)
	}
	return Result{Index: i, Key: p.Key, Outcome: out, Wall: wall}
}

// Run executes every point and returns their outcomes in declaration
// order. With Jobs > 1 points run concurrently; a panicking point is
// re-raised on the calling goroutine, wrapped with the point's key
// (only the first of several concurrent failures is reported).
func (e *Engine) Run(points []Point) []Outcome {
	outs := make([]Outcome, len(points))
	workers := e.jobs()
	if workers > len(points) {
		workers = len(points)
	}
	if workers <= 1 {
		for i, p := range points {
			outs[i] = e.runPoint(i, p)
		}
		return outs
	}

	idx := make(chan int)
	fail := make(chan any, len(points))
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if stopped.Load() {
					continue // fail-fast: drain without running
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							stopped.Store(true)
							fail <- r // already key-wrapped by runPoint
						}
					}()
					outs[i] = e.runPoint(i, points[i])
				}()
			}
		}()
	}
	for i := range points {
		if stopped.Load() {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(fail)
	if f, ok := <-fail; ok {
		panic(f)
	}
	return outs
}

// Fingerprint canonically encodes the given parts (JSON, newline
// separated, version salted) into cache-key material. Parts must be
// JSON-encodable plain data — configuration structs, sizes, labels.
// It panics on unencodable values, but note that JSON encodes
// interface-typed fields by content only: two implementations that
// marshal alike (e.g. both to "{}") would alias, so callers holding
// interface-valued configuration must add a type tag part
// (fmt.Sprintf("%T", v)) alongside the struct.
func Fingerprint(parts ...any) string {
	fb := fpBufPool.Get().(*fpBuf)
	fb.buf.Reset()
	fb.buf.WriteString(fingerprintVersion)
	for _, p := range parts {
		fb.buf.WriteByte('\n')
		// Encoding straight into the pooled buffer avoids the
		// per-part []byte of json.Marshal; Encode appends a newline
		// the format does not want, so trim it back off.
		if err := fb.enc.Encode(p); err != nil {
			fpBufPool.Put(fb)
			panic(fmt.Sprintf("sweep: unencodable fingerprint part %T: %v", p, err))
		}
		fb.buf.Truncate(fb.buf.Len() - 1)
	}
	s := fb.buf.String()
	fpBufPool.Put(fb)
	return s
}

// fpBuf is a reusable fingerprint encoding buffer; the encoder is
// bound to the buffer once so each Fingerprint call costs only the
// final string copy.
type fpBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var fpBufPool = sync.Pool{New: func() any {
	fb := &fpBuf{}
	fb.enc = json.NewEncoder(&fb.buf)
	return fb
}}
