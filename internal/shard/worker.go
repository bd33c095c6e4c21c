package shard

// The shard worker: runs one shard's slice of a partitioned sweep
// through the ordinary engine into a self-contained cache directory,
// then records what it ran in a shard.json summary the merge step
// verifies against.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"accesys/internal/sweep"
)

// SummaryName is the per-shard manifest written next to the cache's
// entry log. Its name fails the cache's pre-log entry-name check, so
// GC leaves it in place.
const SummaryName = "shard.json"

// Summary records what one shard worker ran — the merge step's unit
// of verification (binary salt compatibility) and accounting (points,
// walls, counters).
type Summary struct {
	// Scenario and Full echo the plan the worker executed.
	Scenario string `json:"scenario"`
	Full     bool   `json:"full"`
	// Shard and Of locate this slice in the partition (Shard in
	// [0, Of)).
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Salt is the worker binary's fingerprint — the cache salt every
	// entry in this directory is keyed under. Shards merged together
	// must agree on it.
	Salt string `json:"salt"`
	// Points is the slice size; Cold ran, Warm came from this shard's
	// own cache (a re-run worker).
	Points int `json:"points"`
	Cold   int `json:"cold"`
	Warm   int `json:"warm"`
	// WallNs is the host-side wall time of the slice.
	WallNs int64 `json:"wall_ns"`
	// Counters are the shard cache's persisted totals after the run.
	Counters sweep.Counters `json:"counters"`
	// Failed lists each failed point's error, in slice order. A shard
	// with failed points is finished: its other points are cached.
	Failed []string `json:"failed,omitempty"`
}

// Worker executes one shard of a partitioned sweep.
type Worker struct {
	// Dir is the shard's self-contained cache directory (created if
	// needed). Every outcome and the shard.json summary land here.
	Dir string
	// Jobs bounds the slice's worker pool; <= 0 means one per CPU.
	Jobs int
	// OnResult, when non-nil, observes each completed point (progress
	// reporting). Calls are serialised by the engine.
	OnResult func(sweep.Result)
	// Clock supplies the wall-clock readings behind the summary's
	// WallNs and the engine's per-point walls (which feed the weighted
	// partitioner's profile), so scheduling tests run on a fake clock.
	// Nil means time.Now.
	Clock func() time.Time
}

// now reads the worker's clock.
func (w *Worker) now() time.Time {
	if w.Clock != nil {
		return w.Clock()
	}
	return time.Now()
}

// Run executes shard k of the plan. points must be the same expansion
// the plan was built from — Run revalidates every fingerprint digest
// against the plan before simulating, so a stale plan fails loudly
// instead of filling the cache with mislabeled slices. The returned
// summary has also been written to Dir/shard.json. When points failed,
// Run returns that summary, listing them, together with sweep.Failed's
// error.
func (w *Worker) Run(plan *Plan, k int, points []sweep.Point) (*Summary, error) {
	if k < 0 || k >= plan.Shards {
		return nil, fmt.Errorf("shard: shard %d out of range [0, %d)", k, plan.Shards)
	}
	if len(points) != len(plan.Points) {
		return nil, fmt.Errorf("shard: plan covers %d points, expansion has %d", len(plan.Points), len(points))
	}
	for i, pt := range points {
		if sweep.Digest(pt.Fingerprint) != plan.Points[i].Fingerprint {
			return nil, fmt.Errorf("shard: point %d (%s) does not match the plan; regenerate the plan from this manifest", i, pt.Key)
		}
	}
	cache, err := sweep.OpenSalted(w.Dir)
	if err != nil {
		return nil, err
	}
	// Wall-time profiling feeds the weighted partitioner; a malformed
	// profile is a scheduling hint gone bad, not a reason to refuse
	// work, so it is simply not updated this run.
	prof, perr := sweep.LoadProfile(w.Dir)
	if perr != nil {
		prof = nil
	}

	sel := plan.Select(k)
	slice := make([]sweep.Point, len(sel))
	for i, idx := range sel {
		slice[i] = points[idx]
	}

	sum := &Summary{
		Scenario: plan.Scenario,
		Full:     plan.Full,
		Shard:    k,
		Of:       plan.Shards,
		Salt:     cache.Salt,
		Points:   len(slice),
	}
	eng := &sweep.Engine{Jobs: w.Jobs, Cache: cache, Profile: prof, Clock: w.Clock, OnResult: func(r sweep.Result) {
		if r.Cached {
			sum.Warm++
		} else {
			sum.Cold++
		}
		if w.OnResult != nil {
			w.OnResult(r)
		}
	}}
	start := w.now()
	outs := eng.Run(slice)
	sum.WallNs = w.now().Sub(start).Nanoseconds()
	for _, o := range outs {
		if o.Err != nil {
			sum.Failed = append(sum.Failed, o.Err.Error())
		}
	}

	if err := cache.FlushState(prof); err != nil {
		return nil, fmt.Errorf("shard: persisting counters and wall profile: %v", err)
	}
	if sum.Counters, err = cache.Counters(); err != nil {
		return nil, fmt.Errorf("shard: reading counters: %v", err)
	}
	if err := writeSummary(w.Dir, sum); err != nil {
		return nil, err
	}
	return sum, sweep.Failed(outs)
}

// writeSummary stages the summary and renames it into place, so a
// merge never reads a half-written shard.json.
func writeSummary(dir string, sum *Summary) error {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return sweep.WriteFileAtomic(dir, "shard-*.tmp", SummaryName, append(data, '\n'))
}

// ReadSummary loads dir's shard.json — how the merge step learns a
// directory's salt and accounting.
func ReadSummary(dir string) (*Summary, error) {
	data, err := os.ReadFile(filepath.Join(dir, SummaryName))
	if err != nil {
		return nil, fmt.Errorf("shard: %s is not a shard directory: %v", dir, err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		return nil, fmt.Errorf("shard: %s: malformed %s: %v", dir, SummaryName, err)
	}
	return &sum, nil
}
