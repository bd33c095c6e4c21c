// Package stats implements the statistics framework used by every
// AcceSys component: named scalars, counters, distributions and derived
// formulas collected in per-component groups and dumped as text, in the
// spirit of gem5's stats system.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Stat is the interface implemented by every statistic kind.
type Stat interface {
	// Name returns the statistic's leaf name within its group.
	Name() string
	// Desc returns the one-line description.
	Desc() string
	// Value returns the primary scalar value for dumps and formulas.
	Value() float64
	// Reset clears the statistic to its zero state.
	Reset()
}

// Scalar is a settable floating-point statistic.
type Scalar struct {
	name, desc string
	v          float64
}

// Name implements Stat.
func (s *Scalar) Name() string { return s.name }

// Desc implements Stat.
func (s *Scalar) Desc() string { return s.desc }

// Value implements Stat.
func (s *Scalar) Value() float64 { return s.v }

// Reset implements Stat.
func (s *Scalar) Reset() { s.v = 0 }

// Set stores v.
func (s *Scalar) Set(v float64) { s.v = v }

// Add accumulates v.
func (s *Scalar) Add(v float64) { s.v += v }

// Counter is a monotonically increasing integer statistic.
type Counter struct {
	name, desc string
	n          uint64
}

// Name implements Stat.
func (c *Counter) Name() string { return c.name }

// Desc implements Stat.
func (c *Counter) Desc() string { return c.desc }

// Value implements Stat.
func (c *Counter) Value() float64 { return float64(c.n) }

// Reset implements Stat.
func (c *Counter) Reset() { c.n = 0 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add accumulates n.
func (c *Counter) Add(n uint64) { c.n += n }

// Count returns the raw count.
func (c *Counter) Count() uint64 { return c.n }

// Distribution tracks count, sum, min and max of a sampled quantity,
// enough to report its mean.
type Distribution struct {
	name, desc string
	n          uint64
	sum        float64
	min, max   float64
}

// Name implements Stat.
func (d *Distribution) Name() string { return d.name }

// Desc implements Stat.
func (d *Distribution) Desc() string { return d.desc }

// Value implements Stat; it reports the mean.
func (d *Distribution) Value() float64 { return d.Mean() }

// Reset implements Stat.
func (d *Distribution) Reset() {
	d.n, d.sum = 0, 0
	d.min, d.max = 0, 0
}

// Sample records one observation.
func (d *Distribution) Sample(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
}

// Count returns the number of observations.
func (d *Distribution) Count() uint64 { return d.n }

// Sum returns the total of all observations.
func (d *Distribution) Sum() float64 { return d.sum }

// Mean returns the average observation, or 0 with no samples.
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest observation.
func (d *Distribution) Min() float64 { return d.min }

// Max returns the largest observation.
func (d *Distribution) Max() float64 { return d.max }

// Formula is a derived statistic computed from other stats on demand.
type Formula struct {
	name, desc string
	fn         func() float64
}

// Name implements Stat.
func (f *Formula) Name() string { return f.name }

// Desc implements Stat.
func (f *Formula) Desc() string { return f.desc }

// Value implements Stat.
func (f *Formula) Value() float64 {
	if f.fn == nil {
		return 0
	}
	return f.fn()
}

// Reset implements Stat; formulas hold no state.
func (f *Formula) Reset() {}

// Group is a named collection of statistics belonging to one component.
type Group struct {
	name  string
	stats []Stat
	byKey map[string]Stat
}

// NewGroup creates an empty group. The name becomes the dump prefix,
// e.g. "system.pcie.rc".
func NewGroup(name string) *Group {
	return &Group{name: name, byKey: make(map[string]Stat)}
}

// Name returns the group's dump prefix.
func (g *Group) Name() string { return g.name }

func (g *Group) register(s Stat) {
	if _, dup := g.byKey[s.Name()]; dup {
		panic(fmt.Sprintf("stats: duplicate stat %q in group %q", s.Name(), g.name))
	}
	g.byKey[s.Name()] = s
	g.stats = append(g.stats, s)
}

// Scalar registers and returns a new scalar statistic.
func (g *Group) Scalar(name, desc string) *Scalar {
	s := &Scalar{name: name, desc: desc}
	g.register(s)
	return s
}

// Counter registers and returns a new counter statistic.
func (g *Group) Counter(name, desc string) *Counter {
	c := &Counter{name: name, desc: desc}
	g.register(c)
	return c
}

// Distribution registers and returns a new distribution statistic.
func (g *Group) Distribution(name, desc string) *Distribution {
	d := &Distribution{name: name, desc: desc}
	g.register(d)
	return d
}

// Formula registers and returns a derived statistic.
func (g *Group) Formula(name, desc string, fn func() float64) *Formula {
	f := &Formula{name: name, desc: desc, fn: fn}
	g.register(f)
	return f
}

// Lookup returns the stat with the given leaf name, or nil.
func (g *Group) Lookup(name string) Stat { return g.byKey[name] }

// Reset clears every statistic in the group.
func (g *Group) Reset() {
	for _, s := range g.stats {
		s.Reset()
	}
}

// Registry aggregates the groups of a whole simulated system.
type Registry struct {
	groups []*Group
	byName map[string]*Group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Group)}
}

// Group returns the group with the given name, creating it on first
// use.
func (r *Registry) Group(name string) *Group {
	if g, ok := r.byName[name]; ok {
		return g
	}
	g := NewGroup(name)
	r.byName[name] = g
	r.groups = append(r.groups, g)
	return g
}

// Groups returns all groups sorted by name.
func (r *Registry) Groups() []*Group {
	out := make([]*Group, len(r.groups))
	copy(out, r.groups)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Lookup returns the stat at "group.stat" dotted path, or nil. The
// group name may itself contain dots; the final component is the stat.
func (r *Registry) Lookup(path string) Stat {
	i := strings.LastIndex(path, ".")
	if i < 0 {
		return nil
	}
	g, ok := r.byName[path[:i]]
	if !ok {
		return nil
	}
	return g.Lookup(path[i+1:])
}

// Reset clears every statistic in every group.
func (r *Registry) Reset() {
	for _, g := range r.groups {
		g.Reset()
	}
}

// Dump writes all statistics in gem5-like "name value # desc" lines.
func (r *Registry) Dump(w io.Writer) error {
	for _, g := range r.Groups() {
		for _, s := range g.stats {
			var err error
			switch st := s.(type) {
			case *Distribution:
				_, err = fmt.Fprintf(w, "%s.%s::count %d # %s\n", g.name, st.Name(), st.Count(), st.Desc())
				if err == nil {
					_, err = fmt.Fprintf(w, "%s.%s::mean %.6f # %s\n", g.name, st.Name(), st.Mean(), st.Desc())
				}
				if err == nil {
					_, err = fmt.Fprintf(w, "%s.%s::max %.6f # %s\n", g.name, st.Name(), st.Max(), st.Desc())
				}
			default:
				_, err = fmt.Fprintf(w, "%s.%s %.6f # %s\n", g.name, s.Name(), s.Value(), s.Desc())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
