package equiv

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"accesys/internal/scenario"
	"accesys/internal/sim"
	"accesys/internal/sweep"
)

func TestResolvePrecedence(t *testing.T) {
	cases := []struct {
		name string
		cli  Tolerances
		spec *scenario.AnalyticSpec
		want Tolerances
	}{
		{"defaults", Tolerances{}, nil, Tolerances{Tol: DefaultTol, Warn: DefaultWarn}},
		{"scenario", Tolerances{}, &scenario.AnalyticSpec{Tol: 0.3, Warn: 0.1}, Tolerances{Tol: 0.3, Warn: 0.1}},
		{"scenario tol only", Tolerances{}, &scenario.AnalyticSpec{Tol: 0.3}, Tolerances{Tol: 0.3, Warn: 0.15}},
		{"cli wins", Tolerances{Tol: 0.5, Warn: 0.2}, &scenario.AnalyticSpec{Tol: 0.3, Warn: 0.1}, Tolerances{Tol: 0.5, Warn: 0.2}},
		{"cli tol, scenario warn", Tolerances{Tol: 0.5}, &scenario.AnalyticSpec{Warn: 0.1}, Tolerances{Tol: 0.5, Warn: 0.1}},
		// Bands from different sources can invert; the warn band
		// collapses onto the fail band instead of reclassifying.
		{"cli warn above default tol", Tolerances{Warn: 0.3}, nil, Tolerances{Tol: 0.15, Warn: 0.15}},
		{"cli tol under scenario warn", Tolerances{Tol: 0.05}, &scenario.AnalyticSpec{Warn: 0.1}, Tolerances{Tol: 0.05, Warn: 0.05}},
	}
	for _, c := range cases {
		if got := Resolve(c.cli, c.spec); got != c.want {
			t.Errorf("%s: Resolve = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestClassifyBands(t *testing.T) {
	tol := Tolerances{Tol: 0.15, Warn: 0.075}
	for _, c := range []struct {
		rel  float64
		want Status
	}{
		{0, Pass}, {0.074, Pass}, {0.076, Warn}, {0.15, Warn}, {0.151, Fail}, {math.Inf(1), Fail},
	} {
		if got := tol.Classify(c.rel); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.rel, got, c.want)
		}
	}
}

// cmpRun is one run fed to compare: its timing "exec" in ns and its
// analytic metrics (nil: the model declined the run, nomodel).
type cmpRun struct {
	key string
	ns  float64
	an  map[string]float64
}

var cmpTol = Tolerances{Tol: 0.15, Warn: 0.075}

func execNs(ns float64) map[string]float64 { return map[string]float64{"exec": ns} }

func cmpRow(key, metric string, timing, analytic, rel float64, st Status) Comparison {
	return Comparison{Point: key, Metric: metric, Timing: timing, Analytic: analytic, Rel: rel, Status: st}
}

// checkCompare runs compare over runs, checks the rows against want
// (NaN divergences match each other) and returns the summary report.
func checkCompare(t *testing.T, runs []cmpRun, want []Comparison) *Report {
	t.Helper()
	var points []sweep.Point
	var outs []sweep.Outcome
	var an []map[string]float64
	for _, r := range runs {
		points = append(points, sweep.Point{Key: r.key})
		outs = append(outs, sweep.Outcome{Dur: sim.Tick(r.ns) * sim.Nanosecond})
		an = append(an, r.an)
	}
	got := compare(points, outs, an, cmpTol)
	if !slices.EqualFunc(got, want, func(g, w Comparison) bool {
		if math.IsNaN(g.Rel) && math.IsNaN(w.Rel) {
			g.Rel, w.Rel = 0, 0
		}
		return g == w
	}) {
		t.Errorf("compare = %+v, want %+v", got, want)
	}
	return Summarize(t.Name(), cmpTol, got)
}

// TestCompareJoinsOnFingerprintAndMetric pairs each run's timing and
// analytic metric by name and classifies the divergence into bands.
func TestCompareJoinsOnFingerprintAndMetric(t *testing.T) {
	r := checkCompare(t, []cmpRun{{"a", 100, execNs(105)}, {"b", 100, execNs(90)}, {"c", 100, execNs(120)}},
		[]Comparison{cmpRow("a", "exec", 100, 105, 0.05, Pass), cmpRow("b", "exec", 100, 90, 0.1, Warn),
			cmpRow("c", "exec", 100, 120, 0.2, Fail)})
	if r.Passed != 1 || r.Warned != 1 || r.Failed != 1 || r.OK() {
		t.Fatalf("report: %+v", r)
	}
}

func TestCompareFlagsMissingCounterparts(t *testing.T) {
	// A timing metric the model did not return, and an analytic metric
	// the simulator has no counterpart for; analytic-only rows follow
	// every timing row.
	r := checkCompare(t, []cmpRun{{"a", 100, map[string]float64{"gemm": 40}}, {"b", 100, execNs(100)}},
		[]Comparison{cmpRow("a", "exec", 100, 0, math.NaN(), Fail), cmpRow("b", "exec", 100, 100, 0, Pass),
			cmpRow("a", "gemm", 0, 40, math.NaN(), Fail)})
	if r.Failed != 2 || r.OK() {
		t.Fatalf("missing counterparts not failed: %+v", r)
	}
}

func TestCompareZeroTiming(t *testing.T) {
	r := checkCompare(t, []cmpRun{{"z", 0, execNs(5)}},
		[]Comparison{cmpRow("z", "exec", 0, 5, math.Inf(1), Fail)})
	if r.OK() {
		t.Fatalf("nonzero analytic vs zero timing must fail: %+v", r)
	}
}

func TestCompareClassifiesNoModelPoints(t *testing.T) {
	r := checkCompare(t, []cmpRun{{"modeled", 100, execNs(101)}, {"declined", 100, nil}},
		[]Comparison{cmpRow("modeled", "exec", 100, 101, 0.01, Pass), cmpRow("declined", "exec", 100, 0, math.NaN(), NoModel)})
	if r.Passed != 1 || r.NoModeled != 1 || r.Failed != 0 {
		t.Fatalf("counts: %+v", r)
	}
	if !r.OK() {
		t.Fatal("a declared model gap must not fail the audit")
	}
}

func TestSummarizeStillFailsUnknownMissingCounterparts(t *testing.T) {
	// Only declined runs are excused; a run whose model returned no
	// "exec" stays a conformance break.
	r := checkCompare(t, []cmpRun{{"gone", 100, map[string]float64{}}},
		[]Comparison{cmpRow("gone", "exec", 100, 0, math.NaN(), Fail)})
	if r.Failed != 1 || r.OK() {
		t.Fatalf("missing counterpart not failed: %+v", r)
	}
}

func TestCompareKeepsRepeatedPoints(t *testing.T) {
	// fig6 revisits one latency/size pair: both visits are rows.
	r := checkCompare(t, []cmpRun{{"p", 100, execNs(101)}, {"p", 100, execNs(101)}},
		[]Comparison{cmpRow("p", "exec", 100, 101, 0.01, Pass), cmpRow("p", "exec", 100, 101, 0.01, Pass)})
	if r.Passed != 2 || !r.OK() {
		t.Fatalf("report: %+v", r)
	}
}

func TestSummarizeCounts(t *testing.T) {
	tol := Tolerances{Tol: 0.15, Warn: 0.075}
	comps := []Comparison{
		{Rel: 0.01, Status: Pass},
		{Rel: 0.10, Status: Warn},
		{Rel: 0.30, Status: Fail},
	}
	comps = append(comps, Comparison{Rel: math.NaN(), Status: Fail})
	r := Summarize("demo", tol, comps)
	if r.Passed != 1 || r.Warned != 1 || r.Failed != 2 {
		t.Fatalf("counts: %+v", r)
	}
	if r.OK() {
		t.Fatal("report with failures must not be OK")
	}
	if r.MaxRel != 0.30 {
		t.Fatalf("MaxRel = %v", r.MaxRel)
	}
	if want := (0.01 + 0.10 + 0.30) / 3; math.Abs(r.MeanRel-want) > 1e-12 {
		t.Fatalf("MeanRel = %v, want %v", r.MeanRel, want)
	}
}

func TestReportJSONEncodesNonFiniteDivergence(t *testing.T) {
	// Missing-counterpart failures carry NaN (and zero-baseline ones
	// +Inf); the JSON report must still encode — the machine-readable
	// path matters most exactly when the audit found a conformance
	// break.
	r := Summarize("broken", Tolerances{Tol: 0.15, Warn: 0.075}, []Comparison{
		{Point: "gone", Metric: "exec", Timing: 100, Rel: math.NaN(), Status: Fail},
		{Point: "zero", Metric: "exec", Analytic: 5, Rel: math.Inf(1), Status: Fail},
	})
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("report with non-finite divergence failed to encode: %v", err)
	}
	if !strings.Contains(string(data), `"rel": null`) {
		t.Fatalf("non-finite divergence not encoded as null:\n%s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.Comparisons[0].Rel) {
		t.Fatalf("null rel did not read back as NaN: %+v", back.Comparisons[0])
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	r := Summarize("demo", Tolerances{Tol: 0.15, Warn: 0.075}, []Comparison{
		{Point: "p", Metric: "exec", Timing: 100, Analytic: 99, Rel: 0.01, Status: Pass},
	})
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != "demo" || len(back.Comparisons) != 1 || back.Comparisons[0].Status != Pass {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// miniScenario is a two-point GEMM matrix small enough to simulate in
// milliseconds.
func miniScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "equiv-mini",
		Base:     "pcie8gb",
		Workload: scenario.Workload{Kind: "gemm", N: scenario.Size{Quick: 64, Full: 64}},
		Axes: []scenario.Axis{
			{Name: "lanes", Values: []scenario.Value{4.0, 8.0}},
		},
	}
}

func TestRunEndToEnd(t *testing.T) {
	rep, err := Run(miniScenario(), scenario.Options{Jobs: 2}, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Comparisons) != 2 {
		t.Fatalf("comparisons = %d, want 2", len(rep.Comparisons))
	}
	if !rep.OK() {
		t.Fatalf("mini matrix diverges beyond default tolerance: %+v", rep.Comparisons)
	}
	res := rep.Result()
	if len(res.Rows) != 2 {
		t.Fatalf("rendered rows = %d, want 2", len(res.Rows))
	}
}

func TestRunInjectedDivergenceFails(t *testing.T) {
	rep, err := Run(miniScenario(), scenario.Options{Jobs: 2}, Tolerances{Tol: 1e-9, Warn: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("vanishing tolerance must fail: model and simulation can never agree to 1e-9")
	}
}

func TestRunServedFromWarmCache(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := scenario.Options{Jobs: 2, Cache: cache}
	if _, err := Run(miniScenario(), opt, Tolerances{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := cache.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("cold audit: %d hits, %d misses", hits, misses)
	}
	if _, err := Run(miniScenario(), opt, Tolerances{}); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := cache.Stats(); hits != 2 {
		t.Fatalf("warm audit hit %d of 2 points", hits)
	}
}

func TestRunVitScenarioComparesSplit(t *testing.T) {
	sc := &scenario.Scenario{
		Name:     "equiv-vit-mini",
		Workload: scenario.Workload{Kind: "vit"},
		Axes: []scenario.Axis{
			{Name: "preset", Values: []scenario.Value{"pcie8gb"}},
			{Name: "model", Values: []scenario.Value{"ViT-Base"}},
		},
	}
	rep, err := Run(sc, scenario.Options{Jobs: 1}, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, c := range rep.Comparisons {
		metrics[c.Metric] = true
	}
	for _, want := range []string{"exec", "gemm", "nongemm"} {
		if !metrics[want] {
			t.Fatalf("vit audit missing metric %q: %+v", want, rep.Comparisons)
		}
	}
	if !rep.OK() {
		t.Fatalf("ViT-Base under pcie8gb diverges beyond default tolerance: %+v", rep.Comparisons)
	}
}

func TestRunMultiAccelScenarioIsNoModel(t *testing.T) {
	// A contended 2-accelerator GEMM point has no analytic counterpart;
	// the audit must classify it nomodel and still exit clean rather
	// than hard-failing (the PR-10 equiv bugfix).
	sc := &scenario.Scenario{
		Name:     "equiv-multiaccel",
		Base:     "pcie8gb",
		Workload: scenario.Workload{Kind: "gemm", N: scenario.Size{Quick: 64, Full: 64}},
		Axes: []scenario.Axis{
			{Name: "accelerators", Values: []scenario.Value{1.0, 2.0}},
		},
	}
	rep, err := Run(sc, scenario.Options{Jobs: 2}, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("audit with declared nomodel points must stay OK: %+v", rep.Comparisons)
	}
	if rep.NoModeled != 1 || rep.Passed+rep.Warned != 1 {
		t.Fatalf("want 1 modeled + 1 nomodel: %+v", rep)
	}
	res := rep.Result()
	var sawDash bool
	for _, row := range res.Rows {
		if row[len(row)-1] == string(NoModel) && row[3] == "-" && row[4] == "-" {
			sawDash = true
		}
	}
	if !sawDash {
		t.Fatalf("nomodel row must render dashes for analytic/rel: %+v", res.Rows)
	}
}

func TestRunHomogeneousFarmUsesSerializationBound(t *testing.T) {
	// Homogeneous flat farms get the first-order shared-switch bound —
	// real comparisons, not nomodel rows.
	sc := &scenario.Scenario{
		Name:     "equiv-farm-homog",
		Base:     "pcie8gb",
		Workload: scenario.Workload{Kind: "farm", N: scenario.Size{Quick: 64, Full: 64}},
		Axes: []scenario.Axis{
			{Name: "cluster", Values: []scenario.Value{
				[]any{map[string]any{"kind": "gemm", "n": 2.0}},
			}},
		},
	}
	rep, err := Run(sc, scenario.Options{Jobs: 1}, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoModeled != 0 {
		t.Fatalf("homogeneous farm must be modeled: %+v", rep.Comparisons)
	}
	if !rep.OK() {
		t.Fatalf("farm bound diverges beyond default tolerance: %+v", rep.Comparisons)
	}
}

func TestRunMixedFarmAndTenantsAreNoModel(t *testing.T) {
	for _, sc := range []*scenario.Scenario{
		{
			Name:     "equiv-farm-mixed",
			Base:     "pcie8gb",
			Workload: scenario.Workload{Kind: "farm", N: scenario.Size{Quick: 64, Full: 64}},
			Axes: []scenario.Axis{
				{Name: "cluster", Values: []scenario.Value{
					[]any{map[string]any{"kind": "gemm", "n": 1.0}, map[string]any{"kind": "lite", "n": 1.0}},
				}},
			},
		},
		{
			Name: "equiv-tenants",
			Base: "pcie8gb",
			Workload: scenario.Workload{
				Kind: "tenants",
				Tenants: []scenario.TenantSpec{
					{N: scenario.Size{Quick: 64, Full: 64}},
					{N: scenario.Size{Quick: 64, Full: 64}},
				},
			},
			Defaults: []scenario.Setting{{Axis: "accelerators", Value: 2.0}},
		},
	} {
		rep, err := Run(sc, scenario.Options{Jobs: 1}, Tolerances{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !rep.OK() || rep.NoModeled == 0 || rep.Passed+rep.Warned+rep.Failed != 0 {
			t.Fatalf("%s: want all-nomodel clean audit: %+v", sc.Name, rep)
		}
	}
}

func TestRunFailedPointFailsTheAudit(t *testing.T) {
	sc := miniScenario()
	sc.Axes = []scenario.Axis{{Name: "smmu", Values: []scenario.Value{map[string]any{"tlb_assoc": 4.0}, map[string]any{"tlb_assoc": 3.0}}}}
	rep, err := Run(sc, scenario.Options{Jobs: 2}, Tolerances{})
	if rep != nil || !errors.Is(err, sweep.ErrPoint) || !strings.Contains(err.Error(), `"equiv-mini-assoc3" panicked`) {
		t.Fatalf("Run = %v, %v; want no report and the 3-way TLB point's failure", rep, err)
	}
}
