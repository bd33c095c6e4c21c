// Package explore is the search-driven front-end over a scenario's
// axis space: a suggest → simulate → observe loop that replaces the
// exhaustive cross product once spaces outgrow it. Candidates are
// enumerated lazily through the scenario.Space seam (the full matrix
// is never materialized), screened through the ~free analytic
// backend, and only the promising fraction is promoted to timing
// simulation through the existing sweep engine — so the warm cache,
// in-flight dedup, and wall-time profile all compose for free, and a
// re-explored manifest costs almost nothing.
//
// Searches are deterministic per (manifest, seed, budget): the RNG is
// seeded explicitly and threaded through every sampling decision,
// generation results fold in ascending point-index order, and ranking
// ties break by fingerprint digest. Two runs from the same starting
// cache state produce byte-identical frontiers and traces; a warm
// re-run promotes the same points and cold-simulates none of them.
package explore

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// Defaults for unset stanza fields.
const (
	defaultGeneration = 16
	defaultPromote    = 0.25
	defaultEta        = 4
	defaultFrontier   = 10
	defaultBudget     = "32"

	// defaultPredicted is the cold-profile prior for one timing
	// point's wall — only consulted by wall budgets before any
	// observation lands.
	defaultPredicted = 100 * time.Millisecond

	// smallSpace is the size up to which the feasible set is
	// enumerated exactly; larger spaces fall back to rejection
	// sampling.
	smallSpace = 1 << 16

	// rejectionFactor bounds rejection-sampling attempts per
	// requested candidate so dense constraints cannot spin forever.
	rejectionFactor = 64
)

// Fidelity names for trace records.
const (
	FidelityAnalytic = "analytic"
	FidelityTiming   = "timing"
)

// Params are the CLI-level overrides layered over the manifest's
// explore stanza.
type Params struct {
	// Strategy overrides the stanza's strategy when non-empty.
	Strategy string
	// Seed overrides the stanza's seed when non-nil.
	Seed *int64
	// Budget overrides the stanza's budget when non-empty.
	Budget string
}

// Report is one finished search: the ranked frontier (rendered
// through the shared table type, so text/CSV output is free) and the
// full audit trace.
type Report struct {
	Frontier *scenario.Result
	Trace    *Trace
}

// cand is one candidate moving through the fidelity ladder.
type cand struct {
	index  int
	point  sweep.Point
	digest string
	// obj is the objective at the candidate's latest evaluated
	// fidelity, in nanoseconds.
	obj float64
	// out is the exact-timing outcome (final rung only).
	out  sweep.Outcome
	cold bool
	// eval is the candidate's record in the last trace generation it
	// appeared in; advancing a rung marks it promoted.
	eval *Eval
}

// Search carries one run of the loop. Strategies drive it through
// Sample / Screen / EvalTiming.
type Search struct {
	sc   *scenario.Scenario
	sp   *scenario.Space
	spec scenario.ExploreSpec
	opts scenario.Options
	rng  *rand.Rand

	metric   string
	maximize bool
	genSize  int
	promote  float64
	eta      int
	frontier int
	budget   *sweep.Budget

	// pool is the unvisited feasible index set (small spaces only),
	// permuted in place by sampling.
	pool       []int
	poolBuilt  bool
	visited    map[int]bool
	infeasible int

	exact []*cand // every exact-timing evaluation, in eval order
	trace *Trace
}

// Run executes the manifest's declared search and returns the ranked
// frontier plus the trace. The scenario must carry an explore stanza.
func Run(sc *scenario.Scenario, opts scenario.Options, p Params) (*Report, error) {
	if sc.Explore == nil {
		return nil, fmt.Errorf("explore: scenario %s has no explore stanza", sc.Name)
	}
	spec := *sc.Explore
	if p.Strategy != "" {
		spec.Strategy = p.Strategy
	}
	if p.Seed != nil {
		spec.Seed = *p.Seed
	}
	if p.Budget != "" {
		spec.Budget = p.Budget
	}
	if spec.Budget == "" {
		spec.Budget = defaultBudget
	}
	// Re-validate: CLI overrides may have replaced stanza fields.
	check := sc.Clone()
	check.Explore = &spec
	if err := check.Validate(); err != nil {
		return nil, err
	}
	budget, err := sweep.ParseBudget(spec.Budget)
	if err != nil {
		return nil, fmt.Errorf("explore: %v", err)
	}
	sp, err := sc.Space(opts.Full)
	if err != nil {
		return nil, err
	}

	s := &Search{
		sc:       sc,
		sp:       sp,
		spec:     spec,
		opts:     opts,
		rng:      rand.New(rand.NewSource(spec.Seed)),
		metric:   spec.Objective.Name(),
		maximize: spec.Objective.Maximize(),
		genSize:  spec.Generation,
		promote:  spec.Promote,
		eta:      spec.Eta,
		frontier: spec.Frontier,
		budget:   &budget,
		visited:  map[int]bool{},
	}
	if s.genSize == 0 {
		s.genSize = defaultGeneration
	}
	if s.promote == 0 {
		s.promote = defaultPromote
	}
	if s.eta == 0 {
		s.eta = defaultEta
	}
	if s.frontier == 0 {
		s.frontier = defaultFrontier
	}

	strat, err := strategyFor(spec.Strategy)
	if err != nil {
		return nil, err
	}
	s.trace = &Trace{
		Scenario:  sc.Name,
		Strategy:  strat.Name(),
		Seed:      spec.Seed,
		Budget:    spec.Budget,
		Objective: s.objectiveLabel(),
		Full:      opts.Full,
		SpaceSize: sp.Size(),
	}
	opts.Logf("explore %s: %s over %d points (%s, seed %d, budget %s)\n",
		sc.Name, s.objectiveLabel(), sp.Size(), strat.Name(), spec.Seed, s.budget)

	if err := strat.Run(s); err != nil {
		return nil, err
	}
	return s.finish()
}

func (s *Search) objectiveLabel() string {
	goal := "min"
	if s.maximize {
		goal = "max"
	}
	return goal + " " + s.metric
}

// feasibleIdx applies every axis constraint to point i without
// resolving a run.
func (s *Search) feasibleIdx(i int) bool {
	for _, c := range s.spec.Constraints {
		if c.Axis == "" {
			continue
		}
		if !s.sp.EvalAxisConstraint(c, i) {
			return false
		}
	}
	return true
}

// Sample draws up to n unvisited feasible point indexes, returned in
// ascending order. Small spaces enumerate the feasible set once and
// draw by partial Fisher-Yates; large spaces rejection-sample with a
// bounded attempt count, and when that comes up short — the remainder
// is nearly drained, or constraints are dense — they fall back to one
// exact enumeration of the unvisited feasible remainder, so a search
// never ends while budget and feasible points remain. Either way the
// draw is a pure function of the seeded RNG state, so repeated
// searches visit identical points.
func (s *Search) Sample(n int) []int {
	if n < 1 {
		n = 1
	}
	var out []int
	if s.sp.Size() > smallSpace && !s.poolBuilt {
		for attempts := 0; len(out) < n && attempts < n*rejectionFactor; attempts++ {
			i := s.rng.Intn(s.sp.Size())
			if s.visited[i] {
				continue
			}
			s.visited[i] = true
			if !s.feasibleIdx(i) {
				s.infeasible++
				continue
			}
			out = append(out, i)
		}
		if len(out) == n {
			sort.Ints(out)
			return out
		}
		s.opts.Logf("explore %s: rejection sampling short (%d/%d); enumerating the unvisited remainder\n",
			s.sc.Name, len(out), n)
	}
	s.buildPool()
	out = append(out, s.drawPool(n-len(out))...)
	sort.Ints(out)
	return out
}

// buildPool enumerates the unvisited feasible remainder exactly.
// Small spaces build it on the first Sample; large spaces only when
// rejection sampling has come up short, so the O(size) scan happens
// at most once per search.
func (s *Search) buildPool() {
	if s.poolBuilt {
		return
	}
	s.poolBuilt = true
	for i := 0; i < s.sp.Size(); i++ {
		if s.visited[i] {
			continue
		}
		if s.feasibleIdx(i) {
			s.pool = append(s.pool, i)
		} else {
			s.infeasible++
		}
	}
}

// drawPool removes up to n pool entries by partial Fisher-Yates and
// marks them visited.
func (s *Search) drawPool(n int) []int {
	if n > len(s.pool) {
		n = len(s.pool)
	}
	if n <= 0 {
		return nil
	}
	for j := 0; j < n; j++ {
		k := j + s.rng.Intn(len(s.pool)-j)
		s.pool[j], s.pool[k] = s.pool[k], s.pool[j]
	}
	picked := append([]int{}, s.pool[:n]...)
	s.pool = s.pool[n:]
	for _, i := range picked {
		s.visited[i] = true
	}
	return picked
}

// Screen evaluates one generation through the analytic backend (no
// simulation, no cache traffic) and records it in the trace. The
// returned candidates carry analytic objectives; callers rank and
// promote a fraction of them.
func (s *Search) Screen(indexes []int) ([]*cand, error) {
	if len(indexes) == 0 {
		return nil, nil
	}
	cands := make([]*cand, 0, len(indexes))
	for _, i := range indexes {
		r, err := s.sp.RunAt(i)
		if err != nil {
			return nil, err
		}
		p := s.sc.Points([]scenario.Run{r})[0]
		m, err := s.sc.AnalyticMetrics(r)
		if err != nil {
			return nil, err
		}
		obj, ok := m[s.metric]
		if !ok {
			return nil, fmt.Errorf("explore: analytic backend has no %q metric for %s", s.metric, p.Key)
		}
		cands = append(cands, &cand{
			index:  i,
			point:  p,
			digest: sweep.Digest(p.Fingerprint),
			obj:    obj,
		})
	}
	s.recordGen(FidelityAnalytic, cands)
	return cands, nil
}

// Rank orders candidates by objective (direction per the goal), ties
// broken by fingerprint digest so equal-objective points order
// identically across runs.
func (s *Search) Rank(cands []*cand) []*cand {
	out := append([]*cand{}, cands...)
	sort.SliceStable(out, func(a, b int) bool {
		ca, cb := out[a], out[b]
		if ca.obj != cb.obj {
			if s.maximize {
				return ca.obj > cb.obj
			}
			return ca.obj < cb.obj
		}
		return ca.digest < cb.digest
	})
	return out
}

// EvalTiming promotes ranked candidates to exact timing: the budget
// is charged per candidate in rank order (prediction from the wall
// profile) and only the admitted prefix runs; the admitted candidates
// are simulated through the sweep engine (cache, flight, and profile
// compose), and the generation lands in the trace with timing
// objectives.
//
// Every admitted promotion charges the budget whether or not the
// cache already holds its result — that is what keeps point-budgeted
// searches deterministic across cache states. Failed points fail it.
func (s *Search) EvalTiming(ranked []*cand) error {
	var admitted []*cand
	for _, c := range ranked {
		if !s.budget.Take(s.opts.Profile.Predict(c.digest, defaultPredicted)) {
			break
		}
		if c.eval != nil {
			c.eval.Promoted = true
		}
		admitted = append(admitted, c)
	}
	if len(admitted) == 0 {
		return nil
	}
	// Fold results in ascending point-index order regardless of rank.
	sort.SliceStable(admitted, func(a, b int) bool { return admitted[a].index < admitted[b].index })

	points := make([]sweep.Point, len(admitted))
	for i, c := range admitted {
		points[i] = c.point
	}
	cold := make([]bool, len(points))
	run := s.opts
	prev := run.OnResult
	run.OnResult = func(r sweep.Result) {
		cold[r.Index] = !r.Cached && !r.Shared
		if prev != nil {
			prev(r)
		}
	}
	label := fmt.Sprintf("%s %s g%d", s.sc.Name, FidelityTiming, len(s.trace.Generations))
	outs := run.Sweep(label, points)
	if err := sweep.Failed(outs); err != nil {
		return err
	}
	for i, c := range admitted {
		c.out = outs[i]
		c.cold = cold[i]
		c.obj = s.timingObjective(outs[i])
	}
	s.recordGen(FidelityTiming, admitted)
	s.exact = append(s.exact, admitted...)
	return nil
}

// timingObjective extracts the objective from a timing outcome in
// nanoseconds, matching the analytic screen's units.
func (s *Search) timingObjective(out sweep.Outcome) float64 {
	return scenario.TimingMetrics(out)[s.metric]
}

// metricValue reads a named outcome value for metric constraints:
// "exec" and a ViT outcome's "gemm"/"nongemm" in nanoseconds, anything
// else as extracted. ok is false when the outcome lacks the metric
// (the point is then infeasible).
func metricValue(out sweep.Outcome, name string) (float64, bool) {
	if v, ok := scenario.TimingMetrics(out)[name]; ok {
		return v, true
	}
	v, ok := out.Values[name]
	return v, ok
}

// metricFeasible applies the manifest's metric constraints to one
// exact-timing outcome.
func (s *Search) metricFeasible(out sweep.Outcome) bool {
	for _, c := range s.spec.Constraints {
		if c.Metric == "" {
			continue
		}
		v, ok := metricValue(out, c.Metric)
		if !ok {
			return false
		}
		if c.Equals != nil {
			ev, isNum := c.Equals.(float64)
			if !isNum || v != ev {
				return false
			}
			continue
		}
		if c.Min != nil && v < *c.Min {
			return false
		}
		if c.Max != nil && v > *c.Max {
			return false
		}
	}
	return true
}

// ceilFrac is ceil(n * frac), at least 1 for non-empty inputs.
func ceilFrac(n int, frac float64) int {
	k := int(math.Ceil(float64(n) * frac))
	if k < 1 && n > 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// ceilDiv is ceil(n / d), at least 1 for non-empty inputs.
func ceilDiv(n, d int) int {
	k := (n + d - 1) / d
	if k < 1 && n > 0 {
		k = 1
	}
	return k
}
