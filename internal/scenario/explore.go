package scenario

// The explore stanza: a manifest-declared objective and constraints
// over the axis space, consumed by internal/explore's search loop.
// The scenario layer owns the schema and validation so `accesys
// explore` rejects bad manifests before any simulation starts.

import (
	"fmt"

	"accesys/internal/sweep"
)

// Objective names the metric a search optimizes and the direction.
type Objective struct {
	// Metric is the outcome value to optimize: "exec" (default, the
	// end-to-end duration in ns) for any workload; "gemm"/"nongemm"
	// (the ViT runtime split, ns) for vit scenarios. The analytic
	// backend must model the metric — that is what makes the cheap
	// screening fidelity trustworthy.
	Metric string `json:"metric,omitempty"`
	// Goal is "min" (default) or "max".
	Goal string `json:"goal,omitempty"`
}

// Name returns the resolved metric name.
func (o Objective) Name() string {
	if o.Metric == "" {
		return "exec"
	}
	return o.Metric
}

// Maximize reports whether larger objective values rank better.
func (o Objective) Maximize() bool { return o.Goal == "max" }

// Constraint restricts the feasible region. Exactly one of Axis or
// Metric selects what is constrained: axis constraints prune
// candidates before anything is built or simulated; metric
// constraints filter the frontier after evaluation. At least one
// bound (Min, Max, Equals) must be set.
type Constraint struct {
	// Axis names a declared axis; the constraint applies to its value
	// at each candidate point.
	Axis string `json:"axis,omitempty"`
	// Field selects a numeric field of an object-valued axis (e.g.
	// axis "link", field "lanes"). Only meaningful with Axis.
	Field string `json:"field,omitempty"`
	// Metric names an outcome value ("exec", or any extracted metric
	// like "pages"); points whose outcome lacks it are infeasible.
	Metric string `json:"metric,omitempty"`
	// Min and Max bound the (numeric) value inclusively.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Equals pins the value exactly; compared through the axis's
	// canonical label, so it works for string and object axes too.
	Equals Value `json:"equals,omitempty"`
}

// ExploreSpec is the manifest's "explore" stanza.
type ExploreSpec struct {
	// Objective selects the optimized metric and direction.
	Objective Objective `json:"objective"`
	// Constraints restrict the feasible region.
	Constraints []Constraint `json:"constraints,omitempty"`
	// Strategy is "random" (default) or "halving".
	Strategy string `json:"strategy,omitempty"`
	// Seed fixes the search RNG; runs are deterministic per
	// (manifest, seed, budget).
	Seed int64 `json:"seed,omitempty"`
	// Budget is the stopping rule: a bare integer caps exact-timing
	// promotions by count, a Go duration ("2m") caps their
	// profile-predicted wall time. Default "32".
	Budget string `json:"budget,omitempty"`
	// Generation is the candidates sampled per generation (random
	// strategy; default 16).
	Generation int `json:"generation,omitempty"`
	// Promote is the top fraction of each screened generation
	// promoted to timing (random strategy; default 0.25).
	Promote float64 `json:"promote,omitempty"`
	// Eta is the halving factor: each rung keeps ceil(count/eta)
	// survivors (halving strategy; default 4).
	Eta int `json:"eta,omitempty"`
	// Frontier is how many ranked rows the final table keeps
	// (default 10).
	Frontier int `json:"frontier,omitempty"`
}

// validateExplore checks the stanza against the scenario.
func (s *Scenario) validateExplore() error {
	e := s.Explore
	// The optimizer's screening rung is the analytic backend, which has
	// no model for farm makespans or tenant schedules (scenario.ErrNoModel
	// territory) — reject at parse time rather than aborting mid-search.
	switch s.Workload.Kind {
	case "farm", "tenants":
		return fmt.Errorf("workload kind %q has no analytic screening model; sweep it instead", s.Workload.Kind)
	}
	switch e.Objective.Metric {
	case "", "exec":
	case "gemm", "nongemm":
		if s.Workload.Kind != "vit" {
			return fmt.Errorf("objective metric %q needs a vit workload", e.Objective.Metric)
		}
	default:
		return fmt.Errorf("unknown objective metric %q (want exec, gemm, or nongemm)", e.Objective.Metric)
	}
	switch e.Objective.Goal {
	case "", "min", "max":
	default:
		return fmt.Errorf("objective goal %q (want min or max)", e.Objective.Goal)
	}
	for i, c := range e.Constraints {
		switch {
		case c.Axis != "" && c.Metric != "":
			return fmt.Errorf("constraint %d sets both axis and metric", i)
		case c.Axis == "" && c.Metric == "":
			return fmt.Errorf("constraint %d sets neither axis nor metric", i)
		case c.Axis != "" && !s.hasAxis(c.Axis):
			return fmt.Errorf("constraint %d: %q is not a declared axis", i, c.Axis)
		case c.Field != "" && c.Axis == "":
			return fmt.Errorf("constraint %d: field needs an axis", i)
		}
		if c.Min == nil && c.Max == nil && c.Equals == nil {
			return fmt.Errorf("constraint %d has no bound (want min, max, or equals)", i)
		}
		if c.Equals != nil && (c.Min != nil || c.Max != nil) {
			return fmt.Errorf("constraint %d mixes equals with min/max", i)
		}
		if c.Min != nil && c.Max != nil && *c.Min > *c.Max {
			return fmt.Errorf("constraint %d: min %g exceeds max %g", i, *c.Min, *c.Max)
		}
	}
	switch e.Strategy {
	case "", "random", "halving":
	default:
		return fmt.Errorf("unknown strategy %q (want random or halving)", e.Strategy)
	}
	if e.Budget != "" {
		if _, err := sweep.ParseBudget(e.Budget); err != nil {
			return err
		}
	}
	if e.Generation < 0 {
		return fmt.Errorf("generation must be positive")
	}
	if e.Promote < 0 || e.Promote > 1 {
		return fmt.Errorf("promote fraction %g outside (0, 1]", e.Promote)
	}
	if e.Eta == 1 || e.Eta < 0 {
		return fmt.Errorf("eta must be >= 2")
	}
	if e.Frontier < 0 {
		return fmt.Errorf("frontier must be positive")
	}
	return nil
}

// EvalAxisConstraint checks one axis constraint against the value the
// axis takes at point i of the space. Points in scenarios that do not
// declare the axis never got here (validation rejects them).
func (sp *Space) EvalAxisConstraint(c Constraint, i int) bool {
	ax := sp.axis(c.Axis)
	if ax == nil || i < 0 || i >= sp.size {
		return false
	}
	pos := ax.pos(i)
	if c.Equals != nil {
		cv, err := canon(c.Equals)
		if err != nil {
			return false
		}
		want, err := axisRegistry[c.Axis].parse(cv)
		return err == nil && want.label == ax.sets[pos].label
	}
	num, ok := constraintNumber(ax.vals[pos], c.Field)
	if !ok {
		return false
	}
	if c.Min != nil && num < *c.Min {
		return false
	}
	if c.Max != nil && num > *c.Max {
		return false
	}
	return true
}

// constraintNumber extracts the numeric value a min/max bound
// compares: the value itself for numeric axes, the named field for
// object axes.
func constraintNumber(v Value, field string) (float64, bool) {
	if field != "" {
		m, ok := v.(map[string]any)
		if !ok {
			return 0, false
		}
		f, ok := m[field].(float64)
		return f, ok
	}
	f, ok := v.(float64)
	return f, ok
}
