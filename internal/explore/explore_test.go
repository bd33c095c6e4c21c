package explore

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"accesys/internal/scenario"
	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// miniScenario is a six-point GEMM matrix (2 lane counts x 3 packet
// sizes at n=64) small enough to simulate in milliseconds, carrying an
// explore stanza the tests mutate per case.
func miniScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "explore-mini",
		Base:     "pcie8gb",
		Workload: scenario.Workload{Kind: "gemm", N: scenario.Size{Quick: 64, Full: 64}},
		Axes: []scenario.Axis{
			{Name: "lanes", Values: []scenario.Value{4.0, 8.0}},
			{Name: "packet_bytes", Values: []scenario.Value{64.0, 128.0, 256.0}},
		},
		Explore: &scenario.ExploreSpec{
			Objective: scenario.Objective{Metric: "exec", Goal: "min"},
			Seed:      11,
			Budget:    "2",
		},
	}
}

func openCache(t *testing.T) *sweep.Cache {
	t.Helper()
	c, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Satellite: the determinism contract. Two searches with the same
// (manifest, seed, budget) from identical cache states must produce
// byte-identical traces and identical frontiers.
func TestExploreDeterministicAcrossFreshCaches(t *testing.T) {
	var reps [2]*Report
	for i := range reps {
		rep, err := Run(miniScenario(), scenario.Options{Jobs: 2, Cache: openCache(t)}, Params{})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	b0, err := reps[0].Trace.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := reps[1].Trace.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, b1) {
		t.Fatalf("traces diverge across fresh caches:\n%s\nvs\n%s", b0, b1)
	}
	if !reflect.DeepEqual(reps[0].Frontier, reps[1].Frontier) {
		t.Fatalf("frontiers diverge:\n%+v\nvs\n%+v", reps[0].Frontier, reps[1].Frontier)
	}
}

// A different seed must actually change the search (otherwise the RNG
// is not threaded through sampling).
func TestExploreSeedChangesSampling(t *testing.T) {
	run := func(seed int64) *Report {
		sc := miniScenario()
		// Generations smaller than the space, so the sampled subset —
		// not just the rank order — decides what gets promoted.
		sc.Explore.Generation = 2
		rep, err := Run(sc, scenario.Options{Jobs: 2}, Params{Seed: &seed, Budget: "1"})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	keys := func(rep *Report) []string {
		var out []string
		for _, g := range rep.Trace.Generations {
			for _, e := range g.Evals {
				if e.Promoted {
					out = append(out, e.Key)
				}
			}
		}
		return out
	}
	base := keys(run(1))
	for seed := int64(2); seed < 32; seed++ {
		if !reflect.DeepEqual(keys(run(seed)), base) {
			return
		}
	}
	t.Fatal("30 different seeds promoted identical points; the RNG is not driving sampling")
}

// Satellite: a warm re-run over the first run's cache must promote the
// same points, cold-simulate none of them, and report an identical
// frontier — the budget charges admissions, not simulations.
func TestExploreWarmRerunZeroCold(t *testing.T) {
	cache := openCache(t)
	opt := scenario.Options{Jobs: 2, Cache: cache}
	first, err := Run(miniScenario(), opt, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace.Summary.ColdTiming == 0 {
		t.Fatal("fresh-cache run reported zero cold simulations")
	}
	second, err := Run(miniScenario(), opt, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Trace.Summary.ColdTiming; got != 0 {
		t.Fatalf("warm re-run cold-simulated %d points, want 0", got)
	}
	if second.Trace.Summary.WarmTiming != first.Trace.Summary.Promoted {
		t.Fatalf("warm re-run promoted %d warm, first run promoted %d",
			second.Trace.Summary.WarmTiming, first.Trace.Summary.Promoted)
	}
	if !reflect.DeepEqual(first.Frontier, second.Frontier) {
		t.Fatalf("warm frontier diverges:\n%+v\nvs\n%+v", first.Frontier, second.Frontier)
	}
}

func TestExplorePointBudgetRespected(t *testing.T) {
	rep, err := Run(miniScenario(), scenario.Options{Jobs: 2}, Params{Budget: "2"})
	if err != nil {
		t.Fatal(err)
	}
	sum := rep.Trace.Summary
	if sum.Promoted != 2 || sum.BudgetPoints != 2 {
		t.Fatalf("budget 2 spent %d points on %d promotions", sum.BudgetPoints, sum.Promoted)
	}
	if sum.Screened == 0 {
		t.Fatal("no analytic screening recorded")
	}
}

// An ample point budget on the random strategy drains the space: every
// point gets screened exactly once, then sampling returns empty.
func TestExploreRandomDrainsSpace(t *testing.T) {
	rep, err := Run(miniScenario(), scenario.Options{Jobs: 2}, Params{Strategy: "random", Budget: "100"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Summary.Screened != rep.Trace.SpaceSize {
		t.Fatalf("screened %d of %d points before draining", rep.Trace.Summary.Screened, rep.Trace.SpaceSize)
	}
}

// Promoting every point (promote=1, budget=space) makes the frontier's
// rank 1 the true exhaustive argmin — pinned against a reference sweep.
func TestExploreFullPromotionFindsArgmin(t *testing.T) {
	sc := miniScenario()
	sc.Explore.Promote = 1.0
	opt := scenario.Options{Jobs: 2}

	points, err := sc.PointsFor(false)
	if err != nil {
		t.Fatal(err)
	}
	outs := opt.Sweep("ref", points)
	bestKey, bestDur := "", sim.Tick(0)
	for i, o := range outs {
		if bestKey == "" || o.Dur < bestDur {
			bestKey, bestDur = points[i].Key, o.Dur
		}
	}

	rep, err := Run(sc, opt, Params{Strategy: "random", Budget: "6"})
	if err != nil {
		t.Fatal(err)
	}
	best := rep.Trace.Summary.Best
	if best == nil || best.Key != bestKey {
		t.Fatalf("search best = %+v, exhaustive argmin = %s (%v)", best, bestKey, bestDur)
	}
	if bestDur.Nanoseconds() != best.ObjectiveNs {
		t.Fatalf("best objective %v ns, reference %v", best.ObjectiveNs, bestDur)
	}
}

func TestExploreHalvingLadder(t *testing.T) {
	rep, err := Run(miniScenario(), scenario.Options{Jobs: 2}, Params{Strategy: "halving", Budget: "2"})
	if err != nil {
		t.Fatal(err)
	}
	var fids []string
	for _, g := range rep.Trace.Generations {
		fids = append(fids, g.Fidelity)
	}
	if !reflect.DeepEqual(fids, []string{FidelityAnalytic, FidelityTiming}) {
		t.Fatalf("halving fidelity ladder = %v", fids)
	}
	if rep.Trace.Summary.Best == nil {
		t.Fatal("halving found no best point")
	}
}

// Axis constraints must exclude candidates before any evaluation: no
// excluded point may appear in the trace at any fidelity.
func TestExploreAxisConstraintExcludes(t *testing.T) {
	sc := miniScenario()
	max := 128.0
	sc.Explore.Constraints = []scenario.Constraint{{Axis: "packet_bytes", Max: &max}}
	rep, err := Run(sc, scenario.Options{Jobs: 2}, Params{Strategy: "random", Budget: "100"})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Trace.Summary.AxisInfeasible; got != 2 {
		t.Fatalf("axis-infeasible count %d, want 2 (both lane counts at 256B)", got)
	}
	sp, err := sc.Space(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Trace.Generations {
		for _, e := range g.Evals {
			r, err := sp.RunAt(e.Index)
			if err != nil {
				t.Fatal(err)
			}
			if r.Label("packet_bytes") == "256" {
				t.Fatalf("constrained point %s evaluated at fidelity %s", e.Key, g.Fidelity)
			}
		}
	}
	if rep.Trace.Summary.Screened != 4 {
		t.Fatalf("screened %d points, want the 4 feasible ones", rep.Trace.Summary.Screened)
	}
}

// Metric constraints filter the frontier after exact timing: an
// unsatisfiable bound empties it without suppressing the search.
func TestExploreMetricConstraintFiltersFrontier(t *testing.T) {
	sc := miniScenario()
	max := 1.0 // 1ns: no simulation finishes that fast
	sc.Explore.Constraints = []scenario.Constraint{{Metric: "exec", Max: &max}}
	rep, err := Run(sc, scenario.Options{Jobs: 2}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Summary.Promoted == 0 {
		t.Fatal("metric constraint suppressed the search itself")
	}
	if len(rep.Frontier.Rows) != 0 || rep.Trace.Summary.Best != nil {
		t.Fatalf("unsatisfiable metric bound left %d frontier rows, best %+v",
			len(rep.Frontier.Rows), rep.Trace.Summary.Best)
	}
}

// Regression: on a space larger than budget*eta the halving ladder's
// screened population exceeds the point budget, and the exact rung
// must still admit exactly the budget — a full frontier, not an empty
// one with nil Best.
func TestExploreHalvingLargeSpaceReachesExactRung(t *testing.T) {
	sc := miniScenario()
	sc.Axes = []scenario.Axis{
		{Name: "lanes", Values: []scenario.Value{2.0, 4.0, 8.0, 16.0}},
		{Name: "packet_bytes", Values: []scenario.Value{64.0, 128.0, 256.0}},
		{Name: "dev_packet_bytes", Values: []scenario.Value{64.0, 128.0}},
	}
	sc.Explore.Strategy = "halving"
	rep, err := Run(sc, scenario.Options{Jobs: 2}, Params{Budget: "2"})
	if err != nil {
		t.Fatal(err)
	}
	var timing *Generation
	for _, g := range rep.Trace.Generations {
		if g.Fidelity == FidelityTiming {
			timing = g
		}
	}
	if timing == nil || len(timing.Evals) != 2 {
		t.Fatalf("exact rung admitted %v evals, want the full budget of 2 (generations: %+v)",
			timing, rep.Trace.Generations)
	}
	if got := rep.Trace.Summary.BudgetPoints; got != 2 {
		t.Fatalf("budget charged %d points, want 2", got)
	}
	if got := rep.Trace.Summary.Screened; got != 8 {
		t.Fatalf("screened %d points, want budget*eta = 8 of 24", got)
	}
	if rep.Trace.Summary.Best == nil || len(rep.Frontier.Rows) == 0 {
		t.Fatalf("empty frontier: best=%+v, %d rows", rep.Trace.Summary.Best, len(rep.Frontier.Rows))
	}
}

// Large spaces rejection-sample; when dense constraints (or a nearly
// drained remainder) defeat the bounded attempt budget, Sample must
// fall back to enumerating the unvisited feasible remainder instead of
// returning empty and ending the search early.
func TestExploreSampleLargeSpaceFallback(t *testing.T) {
	vals := func(n int) []scenario.Value {
		out := make([]scenario.Value, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	sc := miniScenario()
	sc.Axes = []scenario.Axis{
		{Name: "lanes", Values: vals(64)},
		{Name: "packet_bytes", Values: vals(64)},
		{Name: "dev_packet_bytes", Values: vals(17)},
	}
	one := 1.0
	sc.Explore.Constraints = []scenario.Constraint{
		{Axis: "lanes", Max: &one},
		{Axis: "packet_bytes", Max: &one},
	}
	sp, err := sc.Space(false)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Size() <= smallSpace {
		t.Fatalf("space size %d does not exercise the rejection-sampling path", sp.Size())
	}
	s := &Search{
		sc:      sc,
		sp:      sp,
		spec:    *sc.Explore,
		rng:     rand.New(rand.NewSource(7)),
		visited: map[int]bool{},
	}
	// 17 feasible points in ~70k: rejection sampling cannot fill a
	// 16-point generation within its attempt budget.
	seen := map[int]bool{}
	got := s.Sample(16)
	if len(got) != 16 {
		t.Fatalf("Sample(16) returned %d points; fallback enumeration missing", len(got))
	}
	rest := s.Sample(16)
	if len(rest) != 1 {
		t.Fatalf("second Sample returned %d points, want the 1 remaining feasible point", len(rest))
	}
	for _, i := range append(got, rest...) {
		if seen[i] {
			t.Fatalf("point %d sampled twice", i)
		}
		seen[i] = true
		if !s.feasibleIdx(i) {
			t.Fatalf("sampled infeasible point %d", i)
		}
	}
	if extra := s.Sample(16); len(extra) != 0 {
		t.Fatalf("drained space still produced %d points", len(extra))
	}
}

func TestExploreRequiresStanza(t *testing.T) {
	sc := miniScenario()
	sc.Explore = nil
	if _, err := Run(sc, scenario.Options{}, Params{}); err == nil {
		t.Fatal("scenario without explore stanza accepted")
	}
}

func TestExploreRejectsInvalidOverrides(t *testing.T) {
	for _, p := range []Params{
		{Strategy: "anneal"},
		{Budget: "0"},
		{Budget: "lots"},
	} {
		if _, err := Run(miniScenario(), scenario.Options{}, p); err == nil {
			t.Fatalf("override %+v accepted", p)
		}
	}
}

// A point that fails at the timing rung fails the search with its
// error, instead of ranking a zero outcome as the fastest point.
func TestExploreFailedPointFailsTheSearch(t *testing.T) {
	sc := miniScenario()
	sc.Axes[1] = scenario.Axis{Name: "smmu", Values: []scenario.Value{map[string]any{"tlb_assoc": 3.0}}}
	rep, err := Run(sc, scenario.Options{Jobs: 2}, Params{Budget: "2"})
	if rep != nil || !errors.Is(err, sweep.ErrPoint) || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run = %v, %v; want no report and the points' failure", rep, err)
	}
}

// TestMetricValueViTSplitInNanoseconds pins the constraint path's
// units on a synthetic ViT outcome: "gemm"/"nongemm" are stored in
// ticks but compared in nanoseconds, like "exec" and the objective;
// other extracted metrics pass through as they are.
func TestMetricValueViTSplitInNanoseconds(t *testing.T) {
	out := sweep.Outcome{Dur: 7 * sim.Microsecond, Values: map[string]float64{
		"gemm":    float64(5 * sim.Microsecond),
		"nongemm": float64(2 * sim.Microsecond),
		"pages":   3,
	}}
	for name, want := range map[string]float64{"exec": 7000, "gemm": 5000, "nongemm": 2000, "pages": 3} {
		if got, ok := metricValue(out, name); !ok || got != want {
			t.Errorf("metricValue(%q) = %v, %v; want %v", name, got, ok, want)
		}
		if name != "pages" {
			if got := (&Search{metric: name}).timingObjective(out); got != want {
				t.Errorf("timingObjective(%q) = %v, want %v", name, got, want)
			}
		}
	}
	if _, ok := metricValue(out, "fairness"); ok {
		t.Error("a missing metric reads as present")
	}
}
