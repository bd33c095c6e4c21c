package scenario

// The lazy enumeration seam: a Space indexes a scenario's cross
// product without materializing it. Expand and RunAt share one
// resolver (runAt), so both paths resolve points identically — the
// explore optimizer walks the same (index, fingerprint) coordinates
// that shard plans and the golden corpus pin, it just never has to
// build all of them.

import (
	"fmt"

	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// spaceAxis is one resolved dimension of the cross product: the axis
// name and phase, its canonical values with their decoded settings,
// and the mixed-radix stride of the axis's position (first axis
// slowest).
type spaceAxis struct {
	name   string
	phase  int
	vals   []Value
	sets   []setting
	stride int
}

// fixed is one decoded scenario default.
type fixed struct {
	phase int
	apply func(r *Run)
}

// Space is a validated, lazily indexable view of a scenario's run
// matrix. Index i corresponds one-to-one with Expand's i-th run — the
// stable enumeration contract PointsFor documents. Every axis value
// and default is decoded once, when the space is built; resolving a
// point only applies the settings the space holds.
type Space struct {
	sc       *Scenario
	full     bool
	defaults []fixed
	axes     []spaceAxis
	names    []string
	size     int
}

// Space validates the scenario and returns the indexable view of its
// cross product for the given mode. A read-only value decodes once and
// every space shares that decode; building a space resolves no point.
func (s *Scenario) Space(full bool) (*Space, error) {
	decoded, defaults, err := s.decoded()
	if err != nil {
		return nil, err
	}
	axes := append([]spaceAxis(nil), decoded...)
	sp := &Space{sc: s, full: full, defaults: defaults, axes: axes, names: make([]string, len(axes)), size: 1}
	for i := range axes {
		if !full {
			n := len(s.Axes[i].Values)
			axes[i].vals, axes[i].sets = axes[i].vals[:n], axes[i].sets[:n]
		}
		sp.names[i] = axes[i].name
		sp.size *= len(axes[i].sets)
	}
	// Mixed-radix strides, last axis fastest (stride 1).
	stride := 1
	for i := len(axes) - 1; i >= 0; i-- {
		axes[i].stride = stride
		stride *= len(axes[i].sets)
	}
	return sp, nil
}

// Size is the number of points in the cross product.
func (sp *Space) Size() int { return sp.size }

// Full reports the mode the space was resolved for.
func (sp *Space) Full() bool { return sp.full }

// Scenario returns the scenario the space indexes.
func (sp *Space) Scenario() *Scenario { return sp.sc }

// axis returns the named axis, nil when the scenario does not declare
// it.
func (sp *Space) axis(name string) *spaceAxis {
	for j := range sp.axes {
		if sp.axes[j].name == name {
			return &sp.axes[j]
		}
	}
	return nil
}

// pos is the position of point i along the axis.
func (ax *spaceAxis) pos(i int) int { return (i / ax.stride) % len(ax.sets) }

// RunAt resolves point i of the cross product — byte-identical to
// Expand's i-th run: defaults and axis values applied in phase order,
// labels recorded in declaration order, then named.
func (sp *Space) RunAt(i int) (Run, error) {
	var r Run
	if err := sp.runAt(i, &r); err != nil {
		return Run{}, err
	}
	return r, nil
}

// runAt resolves point i in place into the zero Run r, so a run's
// config is built where it is stored and never copied.
func (sp *Space) runAt(i int, r *Run) error {
	s := sp.sc
	if i < 0 || i >= sp.size {
		return fmt.Errorf("scenario %s: point index %d out of range [0,%d)", s.Name, i, sp.size)
	}
	r.Cfg = presets[s.base()]()
	r.N = s.SizeFor(sp.full)
	r.Model = workload.ViTBase
	r.axisNames = sp.names
	r.labels = make([]string, len(sp.axes))
	// Apply defaults and the selected value of every axis in phase
	// order (presets replace the config wholesale, so they go first;
	// placement-aware axes like "mem" go last), but record labels in
	// declaration order. Within a phase, defaults precede axes so a
	// swept axis can override a default — and a field default (e.g.
	// compute_ns) survives a preset axis replacing the whole config in
	// the earlier phase.
	for phase := 0; phase <= maxPhase; phase++ {
		for _, d := range sp.defaults {
			if d.phase == phase {
				d.apply(r)
			}
		}
		for j := range sp.axes {
			ax := &sp.axes[j]
			if ax.phase != phase {
				continue
			}
			st := ax.sets[ax.pos(i)]
			st.apply(r)
			r.labels[j] = st.label
		}
	}
	if k := s.Workload.Kind; k == "farm" || k == "tenants" {
		// Farm workloads run one driver per cluster member. The members
		// share a single SMMU, and concurrent drivers installing their
		// own root tables would clobber each other's translation
		// streams, so these workloads run physically addressed. Stamped
		// here — before naming and fingerprinting — so the bypass is
		// part of every farm point's identity.
		r.Cfg.SMMU.Bypass = true
		if k == "tenants" {
			r.Tenants = resolveTenants(s.Workload.Tenants, sp.full)
			if na := r.Cfg.NumAccels(); na < len(r.Tenants) {
				return fmt.Errorf("scenario %s: %d tenants need at least that many accelerators, cluster has %d", s.Name, len(r.Tenants), na)
			}
		}
	}
	s.nameRun(r)
	switch s.Workload.Kind {
	case "gemm", "", "farm":
		if r.N <= 0 {
			return fmt.Errorf("scenario %s: run %s has no GEMM size", s.Name, r.Key)
		}
	}
	return nil
}

// runs resolves every point in order, each in its slot of one slice:
// Expand's body.
func (sp *Space) runs() ([]Run, error) {
	runs := make([]Run, sp.size)
	for i := range runs {
		if err := sp.runAt(i, &runs[i]); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// PointAt resolves point i and wraps it as an engine-ready sweep
// point, identical to PointsFor(full)[i]. The point shares a run of
// its own, so the returned copy may change freely.
func (sp *Space) PointAt(i int) (Run, sweep.Point, error) {
	r := new(Run)
	if err := sp.runAt(i, r); err != nil {
		return Run{}, sweep.Point{}, err
	}
	return *r, sp.sc.pointFor(r), nil
}
