package scenario

// The lazy enumeration seam's contract: Space.RunAt(i) must resolve
// exactly Expand(full)[i] for every builtin, both modes — explore,
// shard plans, and the golden corpus all reference points by this
// shared (index, fingerprint) coordinate system.

import (
	"reflect"
	"strings"
	"testing"
)

func TestSpaceRunAtMatchesExpand(t *testing.T) {
	for _, name := range BuiltinNames() {
		for _, full := range []bool{false, true} {
			sc := MustBuiltin(name)
			runs, err := sc.Expand(full)
			if err != nil {
				t.Fatalf("%s full=%v: %v", name, full, err)
			}
			sp, err := sc.Space(full)
			if err != nil {
				t.Fatalf("%s full=%v: %v", name, full, err)
			}
			if sp.Size() != len(runs) {
				t.Fatalf("%s full=%v: Space.Size %d, Expand %d", name, full, sp.Size(), len(runs))
			}
			for i := range runs {
				got, err := sp.RunAt(i)
				if err != nil {
					t.Fatalf("%s full=%v RunAt(%d): %v", name, full, i, err)
				}
				if !reflect.DeepEqual(got, runs[i]) {
					t.Fatalf("%s full=%v: RunAt(%d) diverges from Expand:\n%+v\nvs\n%+v",
						name, full, i, got, runs[i])
				}
			}
			// Points built lazily must fingerprint identically to the
			// batch path.
			pts := sc.Points(runs)
			for i := range runs {
				_, p, err := sp.PointAt(i)
				if err != nil {
					t.Fatal(err)
				}
				if p.Key != pts[i].Key || p.Fingerprint != pts[i].Fingerprint {
					t.Fatalf("%s full=%v: PointAt(%d) = (%q, %.16s…), want (%q, %.16s…)",
						name, full, i, p.Key, p.Fingerprint, pts[i].Key, pts[i].Fingerprint)
				}
			}
		}
	}
}

func TestSpaceRunAtRangeChecks(t *testing.T) {
	sp, err := MustBuiltin("fig4").Space(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, sp.Size()} {
		if _, err := sp.RunAt(i); err == nil {
			t.Fatalf("RunAt(%d) accepted an out-of-range index", i)
		}
	}
}

// TestExploreStanzaValidation covers the manifest-level checks.
func TestExploreStanzaValidation(t *testing.T) {
	base := func() *Scenario {
		sc := MustBuiltin("fig4")
		sc.Explore = &ExploreSpec{}
		return sc
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("empty stanza (all defaults): %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*ExploreSpec)
	}{
		{"vit metric on gemm", func(e *ExploreSpec) { e.Objective.Metric = "gemm" }},
		{"unknown metric", func(e *ExploreSpec) { e.Objective.Metric = "watts" }},
		{"bad goal", func(e *ExploreSpec) { e.Objective.Goal = "maximize" }},
		{"bad strategy", func(e *ExploreSpec) { e.Strategy = "anneal" }},
		{"bad budget", func(e *ExploreSpec) { e.Budget = "lots" }},
		{"zero budget", func(e *ExploreSpec) { e.Budget = "0" }},
		{"negative promote", func(e *ExploreSpec) { e.Promote = -0.5 }},
		{"promote above one", func(e *ExploreSpec) { e.Promote = 1.5 }},
		{"eta one", func(e *ExploreSpec) { e.Eta = 1 }},
		{"constraint both axis and metric", func(e *ExploreSpec) {
			min := 1.0
			e.Constraints = []Constraint{{Axis: "packet_bytes", Metric: "exec", Min: &min}}
		}},
		{"constraint neither", func(e *ExploreSpec) {
			min := 1.0
			e.Constraints = []Constraint{{Min: &min}}
		}},
		{"constraint undeclared axis", func(e *ExploreSpec) {
			min := 1.0
			e.Constraints = []Constraint{{Axis: "lanes", Min: &min}}
		}},
		{"constraint no bound", func(e *ExploreSpec) {
			e.Constraints = []Constraint{{Axis: "packet_bytes"}}
		}},
		{"constraint equals with max", func(e *ExploreSpec) {
			max := 2.0
			e.Constraints = []Constraint{{Axis: "packet_bytes", Equals: 512.0, Max: &max}}
		}},
		{"constraint min above max", func(e *ExploreSpec) {
			min, max := 3.0, 2.0
			e.Constraints = []Constraint{{Axis: "packet_bytes", Min: &min, Max: &max}}
		}},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(sc.Explore)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}

	// Farm/tenants workloads have no analytic screening model; an
	// explore stanza over them must be rejected at parse time.
	for _, kind := range []string{"farm", "tenants"} {
		sc := base()
		sc.Workload = Workload{Kind: kind, N: Size{Quick: 64, Full: 64},
			Tenants: []TenantSpec{{N: Size{Quick: 64, Full: 64}}, {N: Size{Quick: 64, Full: 64}}}}
		if err := sc.Validate(); err == nil {
			t.Errorf("explore over %s workload validated", kind)
		} else if !strings.Contains(err.Error(), "no analytic screening model") {
			t.Errorf("explore over %s: wrong error: %v", kind, err)
		}
	}

	// A valid constrained stanza passes.
	sc := base()
	max := 512.0
	sc.Explore = &ExploreSpec{
		Objective:   Objective{Metric: "exec", Goal: "min"},
		Constraints: []Constraint{{Axis: "link", Field: "lanes", Max: &max}, {Metric: "exec", Max: &max}},
		Strategy:    "halving",
		Budget:      "90s",
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid stanza rejected: %v", err)
	}
}

// TestSpaceEvalAxisConstraint pins axis-constraint semantics on the
// fig4 matrix: numeric bounds, object-field bounds, and equals.
func TestSpaceEvalAxisConstraint(t *testing.T) {
	sp, err := MustBuiltin("fig4").Space(false)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 256.0, 512.0
	lanes := 8.0
	feasible := func(c Constraint) int {
		n := 0
		for i := 0; i < sp.Size(); i++ {
			if sp.EvalAxisConstraint(c, i) {
				n++
			}
		}
		return n
	}
	// packet_bytes in [256, 512]: 2 of 7 sizes x 5 links.
	if got := feasible(Constraint{Axis: "packet_bytes", Min: &min, Max: &max}); got != 10 {
		t.Fatalf("range constraint admits %d points, want 10", got)
	}
	// link.lanes <= 8: the 4- and 8-lane links, 2 of 5 x 7 sizes.
	if got := feasible(Constraint{Axis: "link", Field: "lanes", Max: &lanes}); got != 14 {
		t.Fatalf("field constraint admits %d points, want 14", got)
	}
	// equals on a numeric axis: one column.
	if got := feasible(Constraint{Axis: "packet_bytes", Equals: 512.0}); got != 5 {
		t.Fatalf("equals constraint admits %d points, want 5", got)
	}
}
