package scenario

// Decode once, key once. A scenario value from Builtin, Parse or Load
// is read-only and carries a memo: its decoded axes and defaults, and
// per scale (quick, full) its space, runs and points with their
// fingerprints, each computed on first use and shared by every later
// Validate, Space, Expand, PointsFor, Render and Run. A warm re-run of
// such a value is then the sweep engine and the table alone.
//
// The memo is bound to the address of the value it was made for. A
// struct literal has none, and a by-value copy carries the pointer but
// not the address, so both decode on every call, as does a Clone, which
// is how a caller derives a variant to change.

import (
	"slices"
	"sync"

	"accesys/internal/sweep"
)

// memo is what a read-only scenario value derives from its fields.
type memo struct {
	owner    *Scenario
	once     sync.Once
	axes     []spaceAxis
	defaults []fixed
	err      error
	scales   [2]expansion // quick, full
}

// expansion is one scale's resolved matrix.
type expansion struct {
	once   sync.Once
	sp     *Space
	runs   []Run
	points []sweep.Point
	err    error
}

// freeze binds a fresh memo to s, making s read-only by contract.
func (s *Scenario) freeze() *Scenario {
	s.memo = &memo{owner: s}
	return s
}

// bound returns s's memo, or nil when s has none of its own.
func (s *Scenario) bound() *memo {
	if m := s.memo; m != nil && m.owner == s {
		return m
	}
	return nil
}

// decoded is decode, once per memo. The returned axes are shared:
// Space copies them before resolving a scale.
func (s *Scenario) decoded() ([]spaceAxis, []fixed, error) {
	m := s.bound()
	if m == nil {
		return s.decode()
	}
	m.once.Do(func() { m.axes, m.defaults, m.err = s.decode() })
	return m.axes, m.defaults, m.err
}

// expand resolves the scale's space, runs and points, once per memo.
// What it returns is shared by every caller of a memoised value, so
// nothing may change it.
func (s *Scenario) expand(full bool) (*Space, []Run, []sweep.Point, error) {
	m := s.bound()
	if m == nil {
		return s.expandFresh(full)
	}
	e := &m.scales[0]
	if full {
		e = &m.scales[1]
	}
	e.once.Do(func() { e.sp, e.runs, e.points, e.err = s.expandFresh(full) })
	return e.sp, e.runs, e.points, e.err
}

func (s *Scenario) expandFresh(full bool) (*Space, []Run, []sweep.Point, error) {
	sp, err := s.Space(full)
	if err != nil {
		return nil, nil, nil, err
	}
	runs, err := sp.runs()
	if err != nil {
		return nil, nil, nil, err
	}
	return sp, runs, s.Points(runs), nil
}

// Clone returns a deep copy of s without a memo: a variant the caller
// may change freely (a shared built-in may not be changed). Axis and
// default values are copied through maps and slices of any; any other
// value type is shared.
func (s *Scenario) Clone() *Scenario {
	c := *s
	c.memo = nil
	c.Workload.Tenants = slices.Clone(s.Workload.Tenants)
	c.Defaults = slices.Clone(s.Defaults)
	for i := range c.Defaults {
		c.Defaults[i].Value = cloneValue(c.Defaults[i].Value)
	}
	c.Axes = slices.Clone(s.Axes)
	for i := range c.Axes {
		c.Axes[i].Values = cloneValues(c.Axes[i].Values)
		c.Axes[i].FullValues = cloneValues(c.Axes[i].FullValues)
	}
	c.Metrics = slices.Clone(s.Metrics)
	if s.Analytic != nil {
		a := *s.Analytic
		c.Analytic = &a
	}
	if s.Explore != nil {
		e := *s.Explore
		e.Constraints = slices.Clone(e.Constraints)
		for i := range e.Constraints {
			k := &e.Constraints[i]
			k.Min, k.Max = cloneFloat(k.Min), cloneFloat(k.Max)
			k.Equals = cloneValue(k.Equals)
		}
		c.Explore = &e
	}
	return &c
}

func cloneValues(vs []Value) []Value {
	if vs == nil {
		return nil
	}
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = cloneValue(v)
	}
	return out
}

func cloneValue(v Value) Value {
	switch x := v.(type) {
	case map[string]any:
		if x == nil {
			return x
		}
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = cloneValue(e)
		}
		return out
	case []any:
		return cloneValues(x)
	}
	return v
}

func cloneFloat(f *float64) *float64 {
	if f == nil {
		return nil
	}
	c := *f
	return &c
}
