package scenario

// The read-only contract behind decode-once: a shared built-in never
// changes, concurrent first use builds one expansion, and values
// without a memo of their own (literals, by-value copies, clones) see
// every change made to them.

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// TestMain fails the package if any test changed a shared built-in:
// after the suite, each one must still equal a fresh declaration, field
// for field, and its decode and both scales' runs and points must
// equal a fresh expansion's.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		for _, d := range sharedDrift() {
			fmt.Fprintln(os.Stderr, "shared built-in changed:", d)
			code = 1
		}
	}
	os.Exit(code)
}

func sharedDrift() []string {
	var drift []string
	for i, b := range builtins {
		sc, want := shared[i], b.new()
		got := *sc
		if reflect.ValueOf(got.figure).Pointer() != reflect.ValueOf(want.figure).Pointer() {
			drift = append(drift, b.name+": figure hook")
		}
		got.figure, got.memo, want.figure = nil, nil, nil
		if !reflect.DeepEqual(got, *want) {
			drift = append(drift, fmt.Sprintf("%s: fields\n%+v\nwant\n%+v", b.name, got, *want))
		}
		axes, _, err := sc.decoded()
		wantAxes, _, wantErr := want.decode()
		if err != nil || wantErr != nil {
			drift = append(drift, fmt.Sprintf("%s: decode: %v / %v", b.name, err, wantErr))
			continue
		}
		for j := range wantAxes {
			if axisView(axes[j]) != axisView(wantAxes[j]) {
				drift = append(drift, fmt.Sprintf("%s: decoded axis %s", b.name, wantAxes[j].name))
			}
		}
		for _, full := range []bool{false, true} {
			_, runs, points, err := sc.expand(full)
			_, wantRuns, wantPoints, wantErr := want.expandFresh(full)
			switch {
			case err != nil || wantErr != nil:
				drift = append(drift, fmt.Sprintf("%s full=%v: expand: %v / %v", b.name, full, err, wantErr))
			case !reflect.DeepEqual(runs, wantRuns):
				drift = append(drift, fmt.Sprintf("%s full=%v: runs", b.name, full))
			case !sameKeys(points, wantPoints):
				drift = append(drift, fmt.Sprintf("%s full=%v: point keys or fingerprints", b.name, full))
			}
		}
	}
	return drift
}

// axisView renders what a decoded axis holds apart from its closures.
func axisView(ax spaceAxis) string {
	s := fmt.Sprintf("%s %d %d %#v", ax.name, ax.phase, ax.stride, ax.vals)
	for _, st := range ax.sets {
		s += fmt.Sprintf(" %q/%q", st.label, st.header)
	}
	return s
}

func sameKeys(a, b []sweep.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Fingerprint != b[i].Fingerprint {
			return false
		}
	}
	return true
}

// fresh is a new read-only value of the named built-in, with a memo
// nothing has used yet: the state Builtin's value starts in.
func fresh(t *testing.T, name string) *Scenario {
	t.Helper()
	for _, b := range builtins {
		if b.name == name {
			return b.new().freeze()
		}
	}
	t.Fatalf("no built-in %q", name)
	return nil
}

// TestBuiltinIsSharedAndExpandsOnce: every call hands out one value,
// and its runs and points are built once per scale.
func TestBuiltinIsSharedAndExpandsOnce(t *testing.T) {
	sc := MustBuiltin("fig4")
	if MustBuiltin("fig4") != sc {
		t.Fatal("Builtin returned two values for one name")
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sc.PointsFor(false)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := sc.Expand(false)
	pointsAgain, _ := sc.PointsFor(false)
	if &again[0] != &runs[0] || &pointsAgain[0] != &points[0] {
		t.Fatal("a second Expand or PointsFor of a built-in built a new expansion")
	}
	full, _ := sc.Expand(true)
	if len(full) != len(runs) || &full[0] == &runs[0] {
		t.Fatal("the full scale shares the quick scale's runs")
	}
	sp1, _ := sc.Space(false)
	sp2, _ := sc.Space(false)
	if sp1 == sp2 || &sp1.axes[0] == &sp2.axes[0] || &sp1.axes[0].sets[0] != &sp2.axes[0].sets[0] {
		t.Fatal("spaces of one value must own their axes but share the decoded settings")
	}
}

// TestFirstUseIsRaceFree: 8 goroutines making first use of one value at
// once get one expansion, equal to a fresh one, and identical rows. Run
// it under -race.
func TestFirstUseIsRaceFree(t *testing.T) {
	ref, err := MustBuiltin("fig4").Clone().PointsFor(false)
	if err != nil {
		t.Fatal(err)
	}
	cache := sweep.Memory()
	for i, p := range ref {
		cache.Put(p.Fingerprint, sweep.Outcome{Dur: sim.Tick(i+1) * sim.Microsecond})
	}
	sc := fresh(t, "fig4")
	const n = 8
	points := make([][]sweep.Point, n)
	rows := make([]string, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				if err := sc.Validate(); err != nil {
					errs[g] = err
					return
				}
			}
			res, err := sc.Run(Options{Jobs: 1, Cache: cache})
			if err != nil {
				errs[g] = err
				return
			}
			rows[g] = fmt.Sprint(res.Rows, res.Notes)
			points[g], errs[g] = sc.PointsFor(false)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if &points[g][0] != &points[0][0] {
			t.Fatalf("goroutine %d got its own expansion", g)
		}
		if !sameKeys(points[g], ref) {
			t.Fatalf("goroutine %d: points differ from a fresh expansion", g)
		}
		if rows[g] != rows[0] {
			t.Fatalf("goroutine %d rendered\n%s\nwant\n%s", g, rows[g], rows[0])
		}
	}
	if _, misses, _ := cache.Stats(); misses != 0 {
		t.Fatalf("%d warm misses", misses)
	}
}

// TestUnboundValuesRenderTheirOwnRows: a struct literal, a by-value
// copy of a parsed manifest and a clone of it, each changed after a
// first Run, render rows of their new matrix, and the parsed original
// keeps its own.
func TestUnboundValuesRenderTheirOwnRows(t *testing.T) {
	parsed, err := Parse([]byte(`{"name":"own","base":"pcie8gb","workload":{"kind":"gemm","n":16},"axes":[{"axis":"lanes","values":[4,8]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	literal := &Scenario{
		Name: "own", Base: "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 16, Full: 16}},
		Axes:     []Axis{{Name: "lanes", Values: vals(4, 8)}},
	}
	copied := *parsed
	opt := Options{Jobs: 1, Cache: sweep.Memory()}
	keys := func(sc *Scenario) string {
		t.Helper()
		res, err := sc.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		var ks []string
		for _, row := range res.Rows {
			ks = append(ks, row[0])
		}
		return fmt.Sprint(ks)
	}
	for name, sc := range map[string]*Scenario{"literal": literal, "copy": &copied, "clone": parsed.Clone()} {
		if got := keys(sc); got != "[own-4 own-8]" {
			t.Fatalf("%s: first run rendered %s", name, got)
		}
		if name == "copy" {
			// A by-value copy shares its slices with the original, so
			// it changes by replacing them.
			sc.Axes = []Axis{{Name: "lanes", Values: vals(2, 16)}}
		} else {
			sc.Axes[0].Values[0], sc.Axes[0].Values[1] = 2, 16
		}
		if got := keys(sc); got != "[own-2 own-16]" {
			t.Fatalf("%s: run after the change rendered %s", name, got)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc.Axes[0].Values = vals("wide")
		if err := sc.Validate(); err == nil {
			t.Fatalf("%s: Validate missed a change made after a Run", name)
		}
	}
	if got := keys(parsed); got != "[own-4 own-8]" {
		t.Fatalf("parsed original rendered %s after its copies changed", got)
	}
}

// TestCloneIsDeep: changing anything reachable from a clone leaves the
// original as declared.
func TestCloneIsDeep(t *testing.T) {
	for _, name := range BuiltinNames() {
		c := MustBuiltin(name).Clone()
		if c.memo != nil {
			t.Fatalf("%s: clone carries a memo", name)
		}
		c.Title = "changed"
		for i := range c.Axes {
			for j, v := range c.Axes[i].Values {
				if m, ok := v.(map[string]any); ok {
					for k := range m {
						m[k] = -1.0
					}
				} else {
					c.Axes[i].Values[j] = "changed"
				}
			}
		}
		for i := range c.Defaults {
			c.Defaults[i].Value = "changed"
		}
		if c.Analytic != nil {
			c.Analytic.Tol = 99
		}
		if want := fresh(t, name); !reflect.DeepEqual(MustBuiltin(name).Axes, want.Axes) ||
			!reflect.DeepEqual(MustBuiltin(name).Defaults, want.Defaults) || !reflect.DeepEqual(MustBuiltin(name).Analytic, want.Analytic) {
			t.Fatalf("%s: changing a clone changed the built-in", name)
		}
	}
	max := 1.0
	e := &ExploreSpec{Constraints: []Constraint{{Axis: "link", Equals: map[string]any{"gbps": 8.0}, Max: &max}}}
	orig := &Scenario{Name: "x", Explore: e, Workload: Workload{Tenants: []TenantSpec{{Jobs: 1}}}}
	c := orig.Clone()
	*c.Explore.Constraints[0].Max = 2
	c.Explore.Constraints[0].Equals.(map[string]any)["gbps"] = 9.0
	c.Workload.Tenants[0].Jobs = 2
	if max != 1 || e.Constraints[0].Equals.(map[string]any)["gbps"] != 8.0 || orig.Workload.Tenants[0].Jobs != 1 {
		t.Fatal("clone shares explore constraints or tenants with its original")
	}
}
