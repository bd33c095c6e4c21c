// Package scenario is the declarative layer over the sweep engine: a
// Scenario names a base system, a workload, and a set of axes whose
// cross product is the run matrix, plus the metrics to extract per
// point and an optional table shape for rendering. The nine built-in
// experiments of the paper's evaluation declare their matrices here
// (see registry.go) with their row shaping (figures.go), and Load
// reads the same model from a JSON manifest so an arbitrary matrix
// runs with zero new Go. Scenario.Run is the one front door for both.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"unicode/utf8"

	"accesys/internal/accel"
	"accesys/internal/core"
	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// Size is a quick/full pair: experiments run reduced sizes by default
// to stay interactive and paper-scale sizes under -full. In JSON it
// decodes from either a plain number (both modes equal) or
// {"quick": q, "full": f}.
type Size struct {
	Quick int `json:"quick"`
	Full  int `json:"full"`
}

// Pick resolves the size for the given mode.
func (s Size) Pick(full bool) int {
	if full {
		return s.Full
	}
	return s.Quick
}

// UnmarshalJSON accepts 512 or {"quick": 512, "full": 2048}.
func (s *Size) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] != '{' {
		var n int
		if err := json.Unmarshal(data, &n); err != nil {
			return err
		}
		s.Quick, s.Full = n, n
		return nil
	}
	type raw Size
	var r raw
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return err
	}
	*s = Size(r)
	return nil
}

// TenantSpec declares one tenant of a "tenants" workload: Jobs
// back-to-back square GEMMs of size N, driven through the tenant's own
// cluster member while the other tenants run concurrently on theirs.
type TenantSpec struct {
	// N is the tenant's square GEMM size.
	N Size `json:"n"`
	// Jobs is how many GEMMs the tenant runs back to back (default 1).
	Jobs int `json:"jobs,omitempty"`
}

// Workload selects what each run simulates: a timing-only square GEMM
// of size N, one ViT encoder layer scaled by the model's layer count
// (the model itself comes from a "model" axis), a "farm" (the point's
// GEMM co-running on every cluster member at once, measuring the
// makespan), or "tenants" (co-running per-tenant schedules sharing the
// interconnect, measuring contention and fairness against solo runs).
type Workload struct {
	// Kind is "gemm" (default), "vit", "farm", or "tenants".
	Kind string `json:"kind"`
	// N is the square GEMM size; a "size" axis overrides it per point.
	N Size `json:"n"`
	// Tenants declares the co-running schedules of a "tenants"
	// workload (at least two).
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// Value is one axis value as decoded from JSON: a number (float64), a
// string, a bool, or an object (map[string]any), depending on the
// axis. Built-in scenarios may use friendlier Go literals — values are
// canonicalized through JSON semantics before use.
type Value = any

// Axis is one swept dimension: a named kind from the axis registry
// (see axes.go) and its value list. Declaration order fixes the cross
// product nesting — the first axis varies slowest.
type Axis struct {
	Name   string  `json:"axis"`
	Values []Value `json:"values"`
	// FullValues are appended under -full (e.g. Table IV's 2048
	// column, too slow for interactive runs).
	FullValues []Value `json:"full_values,omitempty"`
}

// Setting is a fixed single-value axis application: scenario-wide
// configuration overrides that are not swept (e.g. Fig. 6 pins the
// per-tile compute time so memory stays the studied bottleneck).
type Setting struct {
	Axis  string `json:"axis"`
	Value Value  `json:"value"`
}

// Table declares how Render pivots the matrix into a Result: the axis
// whose values label rows, the axis whose values become columns, and
// the cell format. The zero value renders a flat one-row-per-point
// listing with any extracted metrics as extra columns.
type Table struct {
	Row       string `json:"row,omitempty"`
	RowHeader string `json:"row_header,omitempty"`
	Col       string `json:"col,omitempty"`
	// Cell is the duration format: "ms3" (%.3fms, default), "ms2",
	// or "s3".
	Cell string `json:"cell,omitempty"`
}

// Scenario is one declarative sweep.
type Scenario struct {
	// Name identifies the scenario; it prefixes run keys and is the
	// Result ID.
	Name string `json:"name"`
	// Title heads the rendered table. One optional %d verb is
	// substituted with the resolved GEMM size.
	Title string `json:"title,omitempty"`
	// Base names the starting system preset: "default", "pcie2gb",
	// "pcie8gb", "pcie64gb", or "devmem" (empty = "default", the
	// paper's Table II system). A "preset" axis replaces it per point.
	Base string `json:"base,omitempty"`
	// Workload selects the simulated job.
	Workload Workload `json:"workload"`
	// Defaults are fixed overrides applied to every point before the
	// axes.
	Defaults []Setting `json:"defaults,omitempty"`
	// Axes span the run matrix.
	Axes []Axis `json:"axes"`
	// Metrics names extraction groups recorded into each outcome:
	// "pages", "smmu", "accel" (see runner.go).
	Metrics []string `json:"metrics,omitempty"`
	// Table shapes Render output.
	Table Table `json:"table,omitempty"`
	// Analytic tunes the cross-backend equivalence comparison (see
	// analytic.go); nil uses the harness defaults.
	Analytic *AnalyticSpec `json:"analytic,omitempty"`
	// Explore declares the search objective and constraints for
	// `accesys explore` (see explore.go); nil scenarios can only be
	// swept exhaustively.
	Explore *ExploreSpec `json:"explore,omitempty"`

	// figure, set only on built-ins, shapes Run's outcomes into the
	// paper's table and notes in place of Render (see figures.go).
	figure figureFunc
}

// Run is one resolved point of the matrix: the full system config plus
// workload parameters, with the per-axis labels that name it.
type Run struct {
	// Key labels the run in progress output and is unique within the
	// scenario.
	Key string
	// Cfg is the fully resolved system configuration.
	Cfg core.Config
	// N is the GEMM size (gemm and farm workloads).
	N int
	// Model is the ViT variant (vit workloads).
	Model workload.ViTVariant
	// Tenants are the resolved co-running schedules (tenants
	// workloads): sizes picked for the mode, job counts defaulted.
	Tenants []TenantJob

	axisNames []string
	labels    []string
}

// Label returns the run's key fragment for the named axis ("" when the
// axis is not part of the scenario).
func (r Run) Label(axis string) string {
	for i, n := range r.axisNames {
		if n == axis {
			return r.labels[i]
		}
	}
	return ""
}

// SizeFor resolves the workload's GEMM size for the given mode.
func (s *Scenario) SizeFor(full bool) int { return s.Workload.N.Pick(full) }

// TitleFor renders the title, substituting the resolved GEMM size for
// an optional %d verb.
func (s *Scenario) TitleFor(full bool) string {
	if strings.Contains(s.Title, "%d") {
		return fmt.Sprintf(s.Title, s.SizeFor(full))
	}
	return s.Title
}

// canon gives Go-declared scenarios and manifest-loaded ones identical
// value representations, as a JSON round trip would (ints become
// float64, structs become maps). The shapes axis values take (int,
// float64, string, bool, nil, and map[string]any and []any of them)
// are walked directly; anything else, or anything the walk cannot
// vouch for (a non-finite float or an invalid UTF-8 string inside a
// map or slice), takes the round trip itself, so canon accepts,
// rejects and rewrites exactly what the round trip does. A top-level
// float64, string, bool or nil passes through unchecked.
func canon(v Value) (Value, error) {
	switch v.(type) {
	case float64, string, bool, nil:
		return v, nil
	}
	if cv, ok := canonWalk(v, 0); ok {
		return cv, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("unencodable axis value %T: %v", v, err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// maxCanonDepth bounds canonWalk's nesting; a deeper (or cyclic) value
// takes the round trip, which rejects it as JSON does.
const maxCanonDepth = 64

// canonWalk is canon's structural fast path: it reports false for any
// value whose round trip it does not reproduce exactly.
func canonWalk(v Value, depth int) (Value, bool) {
	if depth > maxCanonDepth {
		return nil, false
	}
	switch x := v.(type) {
	case nil, bool:
		return v, true
	case string:
		return v, utf8.ValidString(x)
	case float64:
		return v, !math.IsNaN(x) && !math.IsInf(x, 0)
	case int:
		return float64(x), true
	case map[string]any:
		if x == nil {
			return nil, true
		}
		out := make(map[string]any, len(x))
		for k, e := range x {
			ce, ok := canonWalk(e, depth+1)
			if !ok || !utf8.ValidString(k) {
				return nil, false
			}
			out[k] = ce
		}
		return out, true
	case []any:
		if x == nil {
			return nil, true
		}
		out := make([]any, len(x))
		for i, e := range x {
			ce, ok := canonWalk(e, depth+1)
			if !ok {
				return nil, false
			}
			out[i] = ce
		}
		return out, true
	}
	return nil, false
}

// Validate checks the scenario against the axis registry without
// expanding it.
func (s *Scenario) Validate() error {
	_, _, err := s.decode()
	return err
}

// decode validates the scenario and decodes every axis value (quick
// and full, in declaration order) and every default: the one pass
// Validate and Space share.
func (s *Scenario) decode() ([]spaceAxis, []fixed, error) {
	fail := func(format string, args ...any) ([]spaceAxis, []fixed, error) {
		return nil, nil, fmt.Errorf("scenario %s: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return nil, nil, fmt.Errorf("scenario: missing name")
	}
	if _, ok := presets[s.base()]; !ok {
		return fail("unknown base preset %q (want one of %s)", s.Base, presetNames())
	}
	switch s.Workload.Kind {
	case "", "gemm", "farm":
		if s.SizeFor(false) <= 0 && !s.hasAxis("size") {
			return fail("%s workload needs a positive n or a size axis", cmp.Or(s.Workload.Kind, "gemm"))
		}
		if err := checkDims(s.Workload.N); err != nil {
			return fail("workload n: %v", err)
		}
	case "tenants":
		if len(s.Workload.Tenants) < 2 {
			return fail("tenants workload needs at least two tenants")
		}
		for i, t := range s.Workload.Tenants {
			if t.N.Pick(false) <= 0 || t.N.Pick(true) <= 0 {
				return fail("tenant %d needs a positive n", i)
			}
			if err := checkDims(t.N); err != nil {
				return fail("tenant %d n: %v", i, err)
			}
			if t.Jobs < 0 {
				return fail("tenant %d: negative job count %d", i, t.Jobs)
			}
		}
	case "vit":
	default:
		return fail("unknown workload kind %q (want gemm, vit, farm, or tenants)", s.Workload.Kind)
	}
	axes := make([]spaceAxis, len(s.Axes))
	seen := map[string]bool{}
	for i, ax := range s.Axes {
		def, ok := axisRegistry[ax.Name]
		if !ok {
			return fail("unknown axis %q (want one of %s)", ax.Name, axisNames())
		}
		if seen[ax.Name] {
			return fail("duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fail("axis %q: empty matrix (no values)", ax.Name)
		}
		axes[i] = spaceAxis{name: ax.Name, phase: def.phase}
		labels := map[string]int{}
		for k, v := range append(append([]Value{}, ax.Values...), ax.FullValues...) {
			cv, err := canon(v)
			if err != nil {
				return fail("axis %q: %v", ax.Name, err)
			}
			st, err := def.parse(cv)
			if err != nil {
				return fail("axis %q: %v", ax.Name, err)
			}
			// The label is the value's part of every run key, so two
			// different values sharing one would run two configs under
			// one key. A repeated value (fig6 revisits a point) is one
			// config under one key.
			if j, dup := labels[st.label]; dup && !reflect.DeepEqual(axes[i].vals[j], cv) {
				return fail("axis %q: values %d and %d differ but share the label %q", ax.Name, j, k, st.label)
			}
			labels[st.label] = k
			axes[i].vals = append(axes[i].vals, cv)
			axes[i].sets = append(axes[i].sets, st)
		}
	}
	defaults := make([]fixed, len(s.Defaults))
	for i, d := range s.Defaults {
		def, ok := axisRegistry[d.Axis]
		if !ok {
			return fail("defaults: unknown axis %q", d.Axis)
		}
		cv, err := canon(d.Value)
		if err != nil {
			return fail("defaults %q: %v", d.Axis, err)
		}
		st, err := def.parse(cv)
		if err != nil {
			return fail("defaults %q: %v", d.Axis, err)
		}
		defaults[i] = fixed{phase: def.phase, apply: st.apply}
	}
	for _, m := range s.Metrics {
		if _, ok := metricGroups[m]; !ok {
			return fail("unknown metric group %q (want one of %s)", m, metricNames())
		}
	}
	if s.Table.Col != "" && !seen[s.Table.Col] {
		return fail("table col %q is not a declared axis", s.Table.Col)
	}
	if s.Table.Row != "" && !seen[s.Table.Row] {
		return fail("table row %q is not a declared axis", s.Table.Row)
	}
	if s.Table.Col != "" {
		if s.Table.Row == "" {
			return fail("table col needs a row axis")
		}
		if s.Table.Row == s.Table.Col {
			return fail("table row and col must name different axes")
		}
		if len(s.Axes) != 2 {
			return fail("pivot table needs exactly two axes, have %d", len(s.Axes))
		}
	}
	if _, ok := cellFormats[s.cell()]; !ok {
		return fail("unknown cell format %q", s.Table.Cell)
	}
	if a := s.Analytic; a != nil {
		if a.Tol < 0 || a.Warn < 0 {
			return fail("analytic tolerances must be non-negative")
		}
		if a.Tol > 0 && a.Warn > a.Tol {
			return fail("analytic warn threshold %g exceeds fail threshold %g", a.Warn, a.Tol)
		}
	}
	if s.Explore != nil {
		if err := s.validateExplore(); err != nil {
			return fail("explore: %v", err)
		}
	}
	return axes, defaults, nil
}

// checkDims applies the accelerator's tiling rule to both modes of a
// GEMM size; 0 leaves the mode to a size axis.
func checkDims(sz Size) error {
	for _, n := range []int{sz.Quick, sz.Full} {
		if n == 0 {
			continue
		}
		if err := accel.CheckDim(n); err != nil {
			return err
		}
	}
	return nil
}

func (s *Scenario) base() string {
	if s.Base == "" {
		return "default"
	}
	return s.Base
}

func (s *Scenario) cell() string {
	if s.Table.Cell == "" {
		return "ms3"
	}
	return s.Table.Cell
}

func (s *Scenario) hasAxis(name string) bool {
	for _, ax := range s.Axes {
		if ax.Name == name {
			return true
		}
	}
	return false
}

// Expand validates the scenario and resolves its cross product into
// runs, first axis varying slowest. Every run carries a fully
// defaulted-and-overridden core.Config plus workload parameters; gemm
// runs are named <scenario>-<label>-..., while vit runs keep the
// physical config name (so identical systems share cache entries
// across scenarios) and are keyed <config>/<model>.
func (s *Scenario) Expand(full bool) ([]Run, error) {
	sp, err := s.Space(full)
	if err != nil {
		return nil, err
	}
	return sp.runs()
}

// nameRun fixes the run's config name and progress key. ViT runs are
// identified by their physical system (preset name) so the result
// cache, on disk or memory-only, is shared across figures that sweep
// the same systems.
func (s *Scenario) nameRun(r *Run) {
	if s.Workload.Kind == "vit" {
		key := r.Cfg.Name + "/" + r.Model.Name
		for i, n := range r.axisNames {
			if n != "preset" && n != "model" {
				key += "-" + r.labels[i]
			}
		}
		r.Key = key
		return
	}
	name := s.Name
	for _, l := range r.labels {
		if l != "" {
			name += "-" + l
		}
	}
	r.Cfg.Name = name
	r.Key = name
}

// Options carries the execution knobs shared by built-in experiments
// and manifest sweeps.
type Options struct {
	// Full runs paper-scale sizes and full_values; otherwise reduced
	// sizes keep runtimes interactive.
	Full bool
	// Verbose streams k/n progress lines with an ETA to Out.
	Verbose bool
	// Out receives progress output (default: discard).
	Out io.Writer
	// Jobs bounds each sweep's worker pool; <= 0 runs one worker per
	// CPU. Results are ordering-deterministic regardless.
	Jobs int
	// Cache, when non-nil, remembers completed runs so repeated points
	// skip simulation: across invocations for a directory cache, inside
	// one process for sweep.Memory().
	Cache *sweep.Cache
	// Profile, when non-nil, records measured per-point wall times —
	// the weighted shard partitioner's scheduling input. Flush it after
	// the run to persist.
	Profile *sweep.Profile
	// Flight, when non-nil, coalesces concurrent executions of
	// identical points across every sweep sharing it — how the serve
	// daemon keeps overlapping jobs from racing the same cold
	// simulations.
	Flight *sweep.Flight
	// OnResult, when non-nil, observes every completed point (cold,
	// cached, or shared) in completion order — the serve daemon's
	// per-job progress counters. It composes with, and runs after, the
	// verbose progress printer.
	OnResult func(sweep.Result)
}

// Logf writes a progress line when verbose output is enabled.
func (o Options) Logf(format string, args ...any) {
	if o.Verbose && o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// Sweep fans the points out over the engine, streaming progress (with
// completion counts and an ETA from measured per-point wall times)
// when the options ask for it, and returns outcomes in declaration
// order.
func (o Options) Sweep(label string, points []sweep.Point) []sweep.Outcome {
	eng := &sweep.Engine{Jobs: o.Jobs, Cache: o.Cache, Profile: o.Profile, Flight: o.Flight, OnResult: o.OnResult}
	if o.Verbose && o.Out != nil {
		progress := sweep.NewProgress(o.Out, label, len(points), o.Jobs).Observe
		eng.OnResult = func(r sweep.Result) {
			progress(r)
			if o.OnResult != nil {
				o.OnResult(r)
			}
		}
	}
	return eng.Run(points)
}

// PointsFor expands the scenario and converts the runs into
// engine-ready sweep points in one step. The enumeration is
// order-stable and indexable: repeated expansions of one scenario
// yield the same points in the same positions, independent of
// execution options — the contract distributed shard plans are built
// on (a plan references points by expansion index and fingerprint).
func (s *Scenario) PointsFor(full bool) ([]sweep.Point, error) {
	runs, err := s.Expand(full)
	if err != nil {
		return nil, err
	}
	return s.Points(runs), nil
}

// Run is the one front door for built-ins and manifests alike: expand
// the matrix, sweep it, and shape the table (a built-in's figure hook,
// else Render), or return sweep.Failed's error naming every failed
// point. The scenario is decoded once per call.
func (s *Scenario) Run(o Options) (*Result, error) {
	sp, err := s.Space(o.Full)
	if err != nil {
		return nil, err
	}
	runs, err := sp.runs()
	if err != nil {
		return nil, err
	}
	outs := o.Sweep(s.Name, s.Points(runs))
	if err := sweep.Failed(outs); err != nil {
		return nil, err
	}
	if s.figure != nil {
		return s.figure(sp, runs, outs, o)
	}
	return sp.render(runs, outs)
}
