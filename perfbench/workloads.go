package main

// The three workloads. Every one is a closed loop driven from this
// process with at most two simulation threads, and every cold pass
// writes into a fresh, empty cache directory under .bench_build.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"accesys/internal/exp"
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// setupReps is how many times a run repeats its set-up, each from a
// freshly collected heap and after a host-clock sample; setup_s is the
// median.
const setupReps = 11

// Each cold pass of a built-in matrix is followed by warmSamples timed
// groups of back-to-back warm re-runs of at least warmPoints points
// each; the sweep part of one re-run takes about a millisecond, too
// little to time steadily. Many groups after every cold pass spread the
// warm samples over the whole run.
const (
	warmSamples = 24
	warmPoints  = 500
)

// tally collects the timed intervals behind the end-to-end metrics.
type tally struct {
	setups   []timed
	coldPts  []timed // each cold point
	jobs     []timed // each job
	coldWall []timed // the intervals the cold points ran over
	jobWall  []timed // the intervals the jobs ran over
	warm     []timed // each group of warm re-runs
	warmN    []int   // points in each warm group
	cold     int
	points   int    // points of the cold passes (of all jobs on serve)
	alloc    uint64 // bytes allocated over those points
}

// addCold records a cold pass as one job.
func (t *tally) addCold(ps pass) {
	t.cold += len(ps.cold)
	t.coldPts = append(t.coldPts, ps.cold...)
	t.jobs = append(t.jobs, ps.wall)
	t.coldWall = append(t.coldWall, ps.wall)
	t.jobWall = append(t.jobWall, ps.wall)
	t.points += ps.points
}

// endToEnd reports the tally as the end-to-end metrics, at the nominal
// host speed of the run's host clock, after a closing burst of samples
// that brackets the last intervals.
func (r *run) endToEnd(t tally) {
	h := r.clock
	h.burst()
	secs := func(xs []timed, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = k * h.secs(x)
		}
		return out
	}
	warmRates := make([]float64, len(t.warm))
	for i, x := range t.warm {
		warmRates[i] = float64(t.warmN[i]) / h.secs(x)
	}
	coldMs, jobs := secs(t.coldPts, 1e3), secs(t.jobs, 1)
	r.setSamples("setup_s", "s", secs(t.setups, 1), 0.5)
	r.set("cold_points_per_s", "1/s", float64(t.cold)/h.total(t.coldWall))
	r.setSamples("cold_point_ms_p50", "ms", coldMs, 0.5)
	r.setSamples("cold_point_ms_p90", "ms", coldMs, 0.9)
	r.setSamples("warm_points_per_s", "1/s", warmRates, 0.5)
	r.setSamples("job_s_p50", "s", jobs, 0.5)
	r.setSamples("job_s_p90", "s", jobs, 0.9)
	r.set("jobs_per_s", "1/s", float64(len(t.jobs))/h.total(t.jobWall))
	r.set("alloc_mb_per_point", "MB", float64(t.alloc)/float64(max(t.points, 1))/(1<<20))
	r.set("peak_rss_mb", "MB", peakRSSMB())
}

// freshCache opens an empty, binary-salted cache and its wall profile
// in a new directory, the way `accesys run -cache DIR` opens one.
func (r *run) freshCache() (*sweep.Cache, *sweep.Profile, error) {
	dir, err := os.MkdirTemp(r.tmp, "cache-*")
	if err != nil {
		return nil, nil, err
	}
	c, err := sweep.OpenSalted(dir)
	if err != nil {
		return nil, nil, err
	}
	p, err := sweep.LoadProfile(dir)
	if err != nil {
		return nil, nil, err
	}
	return c, p, nil
}

// timeSetups runs setup setupReps times, each after a garbage
// collection and a host-clock sample, appending each interval, and
// stops at the first error.
func (r *run) timeSetups(samples *[]timed, setup func() error) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		r.clock.sample()
		start := time.Now()
		err := setup()
		*samples = append(*samples, interval(start, time.Now(), 0))
		if err != nil {
			return err
		}
	}
	return nil
}

// pass is the measurement of one sweep invocation, host-clock samples
// taken out.
type pass struct {
	wall   timed // the whole invocation: sweep, render, flush
	sweep  timed // the engine's part: until the last point's result
	cold   []timed
	warm   int
	points int
}

// observer returns the engine callback a pass records its points with.
// It samples the host clock between points, and returns the function
// that closes the pass once the engine is done.
func (r *run) observer(ps *pass) (func(sweep.Result), func()) {
	ref0 := r.clock.spent
	start := time.Now()
	last := start
	on := func(sr sweep.Result) {
		now := time.Now()
		ps.points++
		if sr.Cached {
			ps.warm++
		} else {
			ps.cold = append(ps.cold, interval(last, now, 0))
		}
		r.clock.tick()
		last = time.Now()
	}
	done := func() {
		ref := r.clock.spent - ref0
		ps.sweep = interval(start, last, ref)
		ps.wall = interval(start, time.Now(), ref)
	}
	return on, done
}

// expPass runs the built-in experiment id once through the sweep
// engine, as `accesys run -jobs 1 -cache DIR id` does: sweep, render,
// flush the cache counters and the profile. The rendered rows must
// match the golden file byte for byte; a mismatch or panic fails every
// point of the matrix.
func (r *run) expPass(id string, golden []byte, c *sweep.Cache, p *sweep.Profile) (pass, error) {
	f, _ := exp.ByID(id)
	size, err := matrixSize(id)
	if err != nil {
		return pass{}, err
	}
	var ps pass
	var rows bytes.Buffer
	var flushErr error
	r.attempted += size
	on, done := r.observer(&ps)
	ok := r.guard(size, id+" pass", func() {
		res := f(exp.Options{Jobs: 1, Cache: c, Profile: p, OnResult: on})
		res.Fprint(&rows)
		if flushErr = c.FlushCounters(); flushErr == nil {
			flushErr = p.Flush()
		}
	})
	done()
	if flushErr != nil {
		return ps, flushErr
	}
	if ok && !bytes.Equal(rows.Bytes(), golden) {
		r.fail(size, "%s rows differ from testdata/golden/%s.txt:\n%s", id, id, rows.Bytes())
	}
	return ps, nil
}

func matrixSize(id string) (int, error) {
	runs, err := scenario.MustBuiltin(id).Expand(false)
	return len(runs), err
}

func (r *run) golden(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(r.root, "testdata", "golden", id+".txt"))
}

// builtinPasses runs cold passes of a built-in matrix, each into a
// fresh cache and each followed by warm re-runs over it, until the run
// time is spent.
func (r *run) builtinPasses(id string, t *tally) error {
	golden, err := r.golden(id)
	if err != nil {
		return err
	}
	if err := r.timeSetups(&t.setups, func() error { _, _, err := r.freshCache(); return err }); err != nil {
		return err
	}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < r.seconds; n++ {
		c, p, err := r.freshCache()
		if err != nil {
			return err
		}
		a0 := r.allocMark()
		cold, err := r.expPass(id, golden, c, p)
		if err != nil {
			return err
		}
		t.alloc += r.allocSince(a0)
		t.addCold(cold)
		if err := r.warmPasses(id, golden, c, p, t); err != nil {
			return err
		}
	}
	return nil
}

// warmPasses re-runs a built-in matrix over its filled cache in groups
// and records each group's sweep engine time (fingerprint, cache
// lookup, engine; not rendering and flushing) and point count.
func (r *run) warmPasses(id string, golden []byte, c *sweep.Cache, p *sweep.Profile, t *tally) error {
	for s := 0; s < warmSamples; s++ {
		var group timed
		points := 0
		for points < warmPoints {
			warm, err := r.expPass(id, golden, c, p)
			if err != nil {
				return err
			}
			if warm.warm != warm.points {
				r.fail(warm.points-warm.warm, "%s warm re-run simulated %d points", id, warm.points-warm.warm)
			}
			if points == 0 {
				group.a = warm.sweep.a
			}
			group.b = warm.sweep.b
			group.d += warm.sweep.d
			points += warm.points
		}
		t.warm = append(t.warm, group)
		t.warmN = append(t.warmN, points)
	}
	return nil
}

// fig4Cold: the paper's link × packet-size matrix, 35 GEMM-512 points.
func fig4Cold(r *run) error {
	var t tally
	if err := r.builtinPasses("fig4", &t); err != nil {
		return err
	}
	r.endToEnd(t)
	return nil
}

// traceFig4 runs fig4 untraced once, then through the traced pipeline
// cold and warm; the golden rows rendered from the traced cache check
// the traced outcomes.
func traceFig4(r *run) error {
	golden, err := r.golden("fig4")
	if err != nil {
		return err
	}
	c, p, err := r.freshCache()
	if err != nil {
		return err
	}
	untraced, err := r.expPass("fig4", golden, c, p)
	if err != nil {
		return err
	}
	sc := scenario.MustBuiltin("fig4")
	runs, err := sc.Expand(false)
	if err != nil {
		return err
	}
	if c, p, err = r.freshCache(); err != nil {
		return err
	}
	t := newTracer()
	total := simCounts{stats: map[string]float64{}}
	hits := 0
	traced, _ := r.tracedPass(t, sc, runs, c, &total, &hits)
	r.tracedPass(t, sc, runs, c, &total, &hits)
	if _, err := r.expPass("fig4", golden, c, p); err != nil {
		return err
	}
	r.layerMetrics(t, total, hits, 2*len(runs))
	r.setOverhead(traced, untraced.wall.d)
	r.probeLayers()
	if err := r.probeViT(); err != nil {
		return err
	}
	if err := r.probeServe(); err != nil {
		return err
	}
	return t.write(r)
}

// small-sweep draws smallPerSize grid points of every GEMM size. Each
// round runs them cold into a fresh cache as smallJobs sweep
// invocations holding the same mix of sizes, then re-runs all of them
// warm smallWarm times; rounds repeat until the run time is spent, so
// the cold and the warm samples both spread over the whole run.
const (
	smallPerSize = 160
	smallJobs    = 8
	smallWarm    = 12
)

// smallInputs draws the seed's small-sweep points from the grid.
func (r *run) smallInputs() (*scenario.Scenario, []scenario.Run, []sweep.Point, error) {
	sc := gridScenario()
	sp, err := sc.Space(false)
	if err != nil {
		return nil, nil, nil, err
	}
	idx := drawGrid(sp, r.seed, smallPerSize, smallJobs)
	runs := make([]scenario.Run, len(idx))
	points := make([]sweep.Point, len(idx))
	for i, j := range idx {
		if runs[i], points[i], err = sp.PointAt(j); err != nil {
			return nil, nil, nil, err
		}
	}
	return sc, runs, points, nil
}

// smallSweep: 800 small GEMMs drawn from the grid with the seed, in
// rounds of cold jobs and warm re-runs. Every outcome is checked
// against the fixture.
func smallSweep(r *run) error {
	var t tally
	var runs []scenario.Run
	var points []sweep.Point
	err := r.timeSetups(&t.setups, func() error {
		var err error
		if _, runs, points, err = r.smallInputs(); err != nil {
			return err
		}
		_, _, err = r.freshCache()
		return err
	})
	if err != nil {
		return err
	}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < r.seconds; n++ {
		c, p, err := r.freshCache()
		if err != nil {
			return err
		}
		a0 := r.allocMark()
		for j := 0; j < smallJobs; j++ {
			lo, hi := j*len(points)/smallJobs, (j+1)*len(points)/smallJobs
			cold, err := r.sweepPass(runs[lo:hi], points[lo:hi], c, p)
			if err != nil {
				return err
			}
			t.addCold(cold)
		}
		t.alloc += r.allocSince(a0)
		for s := 0; s < smallWarm; s++ {
			warm, err := r.sweepPass(runs, points, c, p)
			if err != nil {
				return err
			}
			if warm.warm != warm.points {
				r.fail(warm.points-warm.warm, "small-sweep warm re-run simulated %d points", warm.points-warm.warm)
			}
			t.warm = append(t.warm, warm.sweep)
			t.warmN = append(t.warmN, warm.points)
		}
	}
	r.endToEnd(t)
	return nil
}

// sweepPass runs the points once through the sweep engine, as
// `accesys sweep -jobs 1 -cache DIR` does, and checks every outcome
// against the fixture.
func (r *run) sweepPass(runs []scenario.Run, points []sweep.Point, c *sweep.Cache, p *sweep.Profile) (pass, error) {
	var ps pass
	var outs []sweep.Outcome
	r.attempted += len(points)
	on, done := r.observer(&ps)
	ok := r.guard(len(points), "small-sweep pass", func() {
		opt := scenario.Options{Jobs: 1, Cache: c, Profile: p, OnResult: on}
		outs = opt.Sweep("small-sweep", points)
	})
	var err error
	if err = c.FlushCounters(); err == nil {
		err = p.Flush()
	}
	done()
	if ok {
		for i, out := range outs {
			r.checkOutcome(runs[i].Key, out)
		}
	}
	return ps, err
}

// traceSmallSweep runs the seed's small-sweep points untraced once,
// then through the traced pipeline cold and warm.
func traceSmallSweep(r *run) error {
	sc, runs, points, err := r.smallInputs()
	if err != nil {
		return err
	}
	c, p, err := r.freshCache()
	if err != nil {
		return err
	}
	untraced, err := r.sweepPass(runs, points, c, p)
	if err != nil {
		return err
	}
	t := newTracer()
	if err := r.traceGrid(t, sc, runs, untraced.wall.d); err != nil {
		return err
	}
	if err := r.probeViT(); err != nil {
		return err
	}
	if err := r.probeServe(); err != nil {
		return err
	}
	return t.write(r)
}

// traceGrid runs grid points through the traced pipeline, cold into a
// fresh cache and then warm, checks every outcome against the fixture,
// and reports the per-layer metrics and layer probes.
func (r *run) traceGrid(t *tracer, sc *scenario.Scenario, runs []scenario.Run, untraced time.Duration) error {
	c, _, err := r.freshCache()
	if err != nil {
		return err
	}
	total := simCounts{stats: map[string]float64{}}
	hits := 0
	traced, outs := r.tracedPass(t, sc, runs, c, &total, &hits)
	_, warm := r.tracedPass(t, sc, runs, c, &total, &hits)
	for i, run := range runs {
		r.checkOutcome(run.Key, outs[i])
		r.checkOutcome(run.Key, warm[i])
	}
	r.layerMetrics(t, total, hits, 2*len(runs))
	r.setOverhead(traced, untraced)
	r.probeLayers()
	return nil
}
