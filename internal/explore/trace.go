package explore

// The audit trail: every candidate a search touched, at which
// fidelity, with what objective, and whether it advanced — plus the
// ranked frontier rendered through the shared table type. The trace
// is what makes a search auditable (did the screen actually prune?)
// and resumable (a re-run against the same cache warm-hits every
// promotion the trace lists).

import (
	"encoding/json"
	"fmt"
	"strconv"

	"accesys/internal/scenario"
)

// Eval is one candidate evaluation inside a generation.
type Eval struct {
	// Index is the candidate's position in the scenario's stable
	// point enumeration (Space/PointsFor order).
	Index int `json:"index"`
	// Key is the resolved run key (encodes the axis labels).
	Key string `json:"key"`
	// Digest identifies the point's raw fingerprint — the same
	// identity shard plans and wall profiles use.
	Digest string `json:"digest"`
	// ObjectiveNs is the objective at this generation's fidelity.
	ObjectiveNs float64 `json:"objective_ns"`
	// Promoted reports whether the candidate advanced past this
	// fidelity (for timing rungs: whether it was admitted at all).
	Promoted bool `json:"promoted"`
	// Cold reports a real simulation (not a cache hit or a shared
	// in-flight result) — timing fidelities only.
	Cold bool `json:"cold,omitempty"`
}

// Generation is one rung of evaluations at a single fidelity, evals
// in ascending point-index order.
type Generation struct {
	Gen      int     `json:"gen"`
	Fidelity string  `json:"fidelity"`
	Evals    []*Eval `json:"evals"`
}

// BestPoint is the frontier's top entry.
type BestPoint struct {
	Index       int     `json:"index"`
	Key         string  `json:"key"`
	ObjectiveNs float64 `json:"objective_ns"`
}

// Summary aggregates the search for quick auditing.
type Summary struct {
	// Screened counts analytic evaluations (free).
	Screened int `json:"screened"`
	// Promoted counts exact-timing evaluations, warm or cold; each
	// one charges the budget.
	Promoted int `json:"promoted"`
	// ColdTiming / WarmTiming split promotions by cache state — the
	// pruning proof: cold is what the search actually paid.
	ColdTiming int `json:"cold_timing"`
	WarmTiming int `json:"warm_timing"`
	// AxisInfeasible counts points excluded by axis constraints
	// before any evaluation.
	AxisInfeasible int `json:"axis_infeasible"`
	// BudgetPoints / BudgetWallNs are the charges the budget
	// accepted (wall is predicted, so it varies with profile warmth).
	BudgetPoints int        `json:"budget_spent_points"`
	BudgetWallNs int64      `json:"budget_spent_predicted_wall_ns"`
	Best         *BestPoint `json:"best,omitempty"`
}

// Trace is the full machine-readable record of one search.
type Trace struct {
	Scenario    string        `json:"scenario"`
	Strategy    string        `json:"strategy"`
	Seed        int64         `json:"seed"`
	Budget      string        `json:"budget"`
	Objective   string        `json:"objective"`
	Full        bool          `json:"full"`
	SpaceSize   int           `json:"space_size"`
	Generations []*Generation `json:"generations"`
	Summary     Summary       `json:"summary"`
}

// Marshal renders the trace as indented JSON with a trailing newline,
// byte-deterministic for a given search state.
func (t *Trace) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// recordGen appends one generation to the trace. Timing-fidelity
// evals are by definition promoted (they were admitted past the
// budget) and carry their cache state.
func (s *Search) recordGen(fidelity string, cands []*cand) {
	g := &Generation{Gen: len(s.trace.Generations), Fidelity: fidelity}
	for _, c := range cands {
		e := &Eval{
			Index:       c.index,
			Key:         c.point.Key,
			Digest:      c.digest,
			ObjectiveNs: c.obj,
		}
		if fidelity != FidelityAnalytic {
			e.Promoted = true
			e.Cold = c.cold
		}
		c.eval = e
		g.Evals = append(g.Evals, e)
	}
	s.trace.Generations = append(s.trace.Generations, g)
}

// finish filters the exact-timing evaluations through the metric
// constraints, ranks the survivors, and assembles the frontier table
// plus the trace summary.
func (s *Search) finish() (*Report, error) {
	feasible := make([]*cand, 0, len(s.exact))
	for _, c := range s.exact {
		if s.metricFeasible(c.out) {
			feasible = append(feasible, c)
		}
	}
	ranked := s.Rank(feasible)
	if len(ranked) > s.frontier {
		ranked = ranked[:s.frontier]
	}

	sum := &s.trace.Summary
	for _, g := range s.trace.Generations {
		for _, e := range g.Evals {
			if g.Fidelity == FidelityAnalytic {
				sum.Screened++
				continue
			}
			sum.Promoted++
			if e.Cold {
				sum.ColdTiming++
			} else {
				sum.WarmTiming++
			}
		}
	}
	sum.AxisInfeasible = s.infeasible
	pts, wall := s.budget.Spent()
	sum.BudgetPoints = pts
	sum.BudgetWallNs = wall.Nanoseconds()
	if len(ranked) > 0 {
		b := ranked[0]
		sum.Best = &BestPoint{Index: b.index, Key: b.point.Key, ObjectiveNs: b.obj}
	}

	res := &scenario.Result{
		ID:      s.sc.Name + "-explore",
		Title:   fmt.Sprintf("search frontier (%s)", s.objectiveLabel()),
		Headers: []string{"#", "point", s.metric},
	}
	for rank, c := range ranked {
		res.AddRow(strconv.Itoa(rank+1), c.point.Key, formatNs(c.obj))
	}
	res.Note("strategy %s, seed %d, budget %s", s.trace.Strategy, s.spec.Seed, s.budget)
	res.Note("screened %d of %d points analytically; promoted %d to timing; %d excluded by constraints",
		sum.Screened, s.sp.Size(), sum.Promoted, sum.AxisInfeasible)
	return &Report{Frontier: res, Trace: s.trace}, nil
}

// formatNs renders an objective (nanoseconds) as milliseconds, the
// same precision the figure tables use.
func formatNs(ns float64) string {
	return fmt.Sprintf("%.3fms", ns/1e6)
}
