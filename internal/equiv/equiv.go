// Package equiv is the cross-backend equivalence harness: it runs the
// same expanded scenario points through the timing backend (the event
// simulation, via the sweep engine and its result cache) and the
// analytic backend (the closed-form models of internal/analytic,
// parameterized from the same core.Config), compares the two run by
// run and metric by metric, and reports per-point relative divergence
// against configurable tolerance bands. The ROADMAP names this check
// as the mechanism that turns the result cache from a speedup into a
// validation asset: warm cache outcomes are compared without
// re-simulating.
package equiv

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// Default tolerance bands: a point fails beyond Tol and warns beyond
// Warn. Scenarios override them via their AnalyticSpec; the CLI's
// -tol/-warn flags override both.
const (
	DefaultTol  = 0.15
	DefaultWarn = 0.075
)

// Status classifies one comparison against the tolerance bands.
type Status string

// Comparison statuses, ordered by severity. NoModel marks points the
// analytic backend declines by design (scenario.ErrNoModel: contended
// multi-accelerator runs, 2-level trees, mixed-kind farms, tenant
// schedules) — they are counted and surfaced, but a declared model gap
// is not a conformance break, so they do not fail the audit.
const (
	Pass    Status = "pass"
	Warn    Status = "warn"
	Fail    Status = "fail"
	NoModel Status = "nomodel"
)

// Comparison is the per-point, per-metric divergence record.
type Comparison struct {
	Point    string  `json:"point"`
	Metric   string  `json:"metric"`
	Timing   float64 `json:"timing_ns"`
	Analytic float64 `json:"analytic_ns"`
	// Rel is |timing-analytic| / timing. It is NaN for a
	// missing-counterpart failure and +Inf for a zero timing baseline;
	// JSON (which cannot carry non-finite numbers) encodes those as
	// null.
	Rel    float64 `json:"rel"`
	Status Status  `json:"status"`
}

// comparisonJSON is Comparison's wire form: rel becomes nullable so
// non-finite divergences survive encoding instead of failing
// json.Marshal exactly when the audit found a conformance break.
type comparisonJSON struct {
	Point    string   `json:"point"`
	Metric   string   `json:"metric"`
	Timing   float64  `json:"timing_ns"`
	Analytic float64  `json:"analytic_ns"`
	Rel      *float64 `json:"rel"`
	Status   Status   `json:"status"`
}

// MarshalJSON implements json.Marshaler.
func (c Comparison) MarshalJSON() ([]byte, error) {
	out := comparisonJSON{Point: c.Point, Metric: c.Metric,
		Timing: c.Timing, Analytic: c.Analytic, Status: c.Status}
	if !math.IsNaN(c.Rel) && !math.IsInf(c.Rel, 0) {
		out.Rel = &c.Rel
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler: a null rel reads back as
// NaN.
func (c *Comparison) UnmarshalJSON(data []byte) error {
	var in comparisonJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*c = Comparison{Point: in.Point, Metric: in.Metric,
		Timing: in.Timing, Analytic: in.Analytic, Status: in.Status, Rel: math.NaN()}
	if in.Rel != nil {
		c.Rel = *in.Rel
	}
	return nil
}

// Tolerances are the resolved comparison bands.
type Tolerances struct {
	Tol  float64 `json:"tol"`
	Warn float64 `json:"warn"`
}

// Resolve fills unset bands from the scenario's AnalyticSpec and the
// harness defaults: an explicit CLI value wins, then the scenario,
// then DefaultTol/DefaultWarn (warn defaulting to half of a custom
// fail threshold).
func Resolve(cli Tolerances, spec *scenario.AnalyticSpec) Tolerances {
	t := cli
	if t.Tol == 0 && spec != nil {
		t.Tol = spec.Tol
	}
	if t.Warn == 0 && spec != nil {
		t.Warn = spec.Warn
	}
	if t.Tol == 0 {
		t.Tol = DefaultTol
	}
	if t.Warn == 0 {
		if t.Tol == DefaultTol {
			t.Warn = DefaultWarn
		} else {
			t.Warn = t.Tol / 2
		}
	}
	// Bands from different sources (CLI warn vs scenario/default tol)
	// can invert; a warn band past the fail band collapses onto it
	// rather than reclassifying failures.
	if t.Warn > t.Tol {
		t.Warn = t.Tol
	}
	return t
}

// Classify places one relative divergence in a band.
func (t Tolerances) Classify(rel float64) Status {
	switch {
	case rel > t.Tol:
		return Fail
	case rel > t.Warn:
		return Warn
	default:
		return Pass
	}
}

// Report is the machine-readable result of one scenario audit.
type Report struct {
	Scenario    string       `json:"scenario"`
	Tolerances  Tolerances   `json:"tolerances"`
	Comparisons []Comparison `json:"comparisons"`
	Passed      int          `json:"passed"`
	Warned      int          `json:"warned"`
	Failed      int          `json:"failed"`
	// NoModeled counts points the analytic backend declined by design;
	// they never fail the audit.
	NoModeled int `json:"nomodel"`
	// MaxRel is the worst divergence observed.
	MaxRel float64 `json:"max_rel"`
	// MeanRel is the mean divergence across comparisons.
	MeanRel float64 `json:"mean_rel"`
}

// OK reports whether every comparison stayed inside the fail band.
func (r *Report) OK() bool { return r.Failed == 0 }

// Result renders the report as a human table through the same
// renderer the scenario sweeps print with.
func (r *Report) Result() *scenario.Result {
	res := &scenario.Result{
		ID:      r.Scenario,
		Title:   "timing vs analytic divergence",
		Headers: []string{"point", "metric", "timing_ms", "analytic_ms", "rel", "status"},
	}
	for _, c := range r.Comparisons {
		analytic, rel := fmt.Sprintf("%.3f", c.Analytic/1e6), fmt.Sprintf("%+.1f%%", 100*signedRel(c))
		if c.Status == NoModel {
			analytic, rel = "-", "-"
		}
		res.AddRow(c.Point, c.Metric,
			fmt.Sprintf("%.3f", c.Timing/1e6),
			analytic, rel,
			string(c.Status))
	}
	res.Note("%d pass, %d warn, %d fail, %d nomodel (warn > %.1f%%, fail > %.1f%%)",
		r.Passed, r.Warned, r.Failed, r.NoModeled, 100*r.Tolerances.Warn, 100*r.Tolerances.Tol)
	res.Note("divergence: max %.1f%%, mean %.1f%%", 100*r.MaxRel, 100*r.MeanRel)
	return res
}

// signedRel is the signed relative error (analytic fast = negative).
func signedRel(c Comparison) float64 {
	if c.Timing == 0 {
		return 0
	}
	return (c.Analytic - c.Timing) / c.Timing
}

// compare pairs each run's timing outcome with its analytic metrics
// (nil when the backend declined the run by design) by metric name.
// Timing reports metric "exec" for the primary duration, plus "gemm"
// and "nongemm" for a ViT outcome's split. A timing metric without an
// analytic counterpart fails with a NaN divergence (a backend that
// cannot speak to a point is a conformance break, not a silent skip)
// unless the run was declined, when it records "nomodel". Analytic-only
// metrics fail too; they follow every timing row, in name order.
func compare(points []sweep.Point, outs []sweep.Outcome, analytic []map[string]float64, tol Tolerances) []Comparison {
	var comps, orphans []Comparison
	for i, p := range points {
		o, am := outs[i], analytic[i]
		timing := scenario.TimingMetrics(o)
		names := slices.Sorted(maps.Keys(timing)) // exec, then a ViT split's gemm, nongemm
		for _, m := range names {
			t := timing[m]
			a, ok := am[m]
			if !ok {
				status := Fail
				if am == nil {
					status = NoModel
				}
				comps = append(comps, Comparison{Point: p.Key, Metric: m,
					Timing: t, Rel: math.NaN(), Status: status})
				continue
			}
			rel := 0.0
			if t != 0 {
				rel = math.Abs(t-a) / t
			} else if a != 0 {
				rel = math.Inf(1)
			}
			comps = append(comps, Comparison{Point: p.Key, Metric: m,
				Timing: t, Analytic: a, Rel: rel, Status: tol.Classify(rel)})
		}
		for _, m := range slices.Sorted(maps.Keys(am)) {
			if _, ok := timing[m]; !ok {
				orphans = append(orphans, Comparison{Point: p.Key, Metric: m,
					Analytic: am[m], Rel: math.NaN(), Status: Fail})
			}
		}
	}
	return append(comps, orphans...)
}

// Summarize folds comparisons into a report. Non-finite divergences
// (NaN for a missing counterpart, +Inf for a zero timing baseline)
// count as failures but are excluded from the divergence statistics
// entirely — diluting the mean with zeros would understate divergence
// exactly when the audit is most broken, and MaxRel/MeanRel must stay
// JSON-encodable.
func Summarize(name string, tol Tolerances, comps []Comparison) *Report {
	r := &Report{Scenario: name, Tolerances: tol, Comparisons: comps}
	var sum float64
	var measured int
	for _, c := range comps {
		switch c.Status {
		case Pass:
			r.Passed++
		case Warn:
			r.Warned++
		case NoModel:
			r.NoModeled++
		default:
			r.Failed++
		}
		if math.IsNaN(c.Rel) || math.IsInf(c.Rel, 0) {
			continue
		}
		if c.Rel > r.MaxRel {
			r.MaxRel = c.Rel
		}
		sum += c.Rel
		measured++
	}
	if measured > 0 {
		r.MeanRel = sum / float64(measured)
	}
	return r
}

// Run audits one scenario end to end: expand the matrix, obtain timing
// outcomes through the sweep engine (warm cache entries satisfy points
// without re-simulating), evaluate the analytic backend, and compare.
// cli carries explicit tolerance overrides (zero = scenario/harness
// defaults).
func Run(sc *scenario.Scenario, opt scenario.Options, cli Tolerances) (*Report, error) {
	runs, err := sc.Expand(opt.Full)
	if err != nil {
		return nil, err
	}
	// Evaluate the analytic backend before paying for simulation, so a
	// scenario without an analytic mapping errors instantly. A run the
	// backend declines by design (scenario.ErrNoModel) keeps a nil
	// entry; any other analytic error is fatal.
	analytic := make([]map[string]float64, len(runs))
	for i, r := range runs {
		m, err := sc.AnalyticMetrics(r)
		if errors.Is(err, scenario.ErrNoModel) {
			continue
		}
		if err != nil {
			return nil, err
		}
		analytic[i] = m
	}
	points := sc.Points(runs)
	outs := opt.Sweep("equiv/"+sc.Name, points)
	if err := sweep.Failed(outs); err != nil {
		return nil, err
	}
	tol := Resolve(cli, sc.Analytic)
	return Summarize(sc.Name, tol, compare(points, outs, analytic, tol)), nil
}
