package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestScalar(t *testing.T) {
	g := NewGroup("g")
	s := g.Scalar("x", "a scalar")
	s.Set(3)
	s.Add(2)
	if s.Value() != 5 {
		t.Fatalf("Value = %v, want 5", s.Value())
	}
	s.Reset()
	if s.Value() != 0 {
		t.Fatal("Reset did not zero the scalar")
	}
}

func TestCounter(t *testing.T) {
	g := NewGroup("g")
	c := g.Counter("n", "a counter")
	c.Inc()
	c.Add(4)
	if c.Count() != 5 || c.Value() != 5 {
		t.Fatalf("Count = %d, want 5", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
}

func TestDistribution(t *testing.T) {
	g := NewGroup("g")
	d := g.Distribution("d", "a distribution")
	for _, v := range []float64{1, 2, 3, 4} {
		d.Sample(v)
	}
	if d.Count() != 4 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Mean() != 2.5 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.Sum() != 10 {
		t.Fatalf("Sum = %v", d.Sum())
	}
}

func TestDistributionEmpty(t *testing.T) {
	g := NewGroup("g")
	d := g.Distribution("d", "")
	if d.Mean() != 0 {
		t.Fatal("empty distribution should report zero mean")
	}
}

func TestFormula(t *testing.T) {
	g := NewGroup("g")
	a := g.Counter("a", "")
	b := g.Counter("b", "")
	f := g.Formula("ratio", "a/b", func() float64 {
		if b.Count() == 0 {
			return 0
		}
		return a.Value() / b.Value()
	})
	a.Add(6)
	b.Add(3)
	if f.Value() != 2 {
		t.Fatalf("formula = %v, want 2", f.Value())
	}
}

func TestDuplicateStatPanics(t *testing.T) {
	g := NewGroup("g")
	g.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate stat name did not panic")
		}
	}()
	g.Scalar("x", "")
}

func TestRegistryLookupAndDump(t *testing.T) {
	r := NewRegistry()
	g := r.Group("system.pcie.rc")
	c := g.Counter("packets", "forwarded packets")
	c.Add(42)
	d := g.Distribution("latency", "per packet latency")
	d.Sample(10)

	if got := r.Lookup("system.pcie.rc.packets"); got == nil || got.Value() != 42 {
		t.Fatalf("Lookup failed: %v", got)
	}
	if r.Lookup("nope") != nil || r.Lookup("system.pcie.rc.zzz") != nil {
		t.Fatal("Lookup of missing stat should be nil")
	}
	// Same group returned on repeat access.
	if r.Group("system.pcie.rc") != g {
		t.Fatal("Group should be idempotent")
	}

	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"system.pcie.rc.packets 42.000000",
		"system.pcie.rc.latency::count 1",
		"system.pcie.rc.latency::mean 10.000000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q in:\n%s", want, out)
		}
	}

	r.Reset()
	if c.Count() != 0 || d.Count() != 0 {
		t.Fatal("registry Reset did not clear stats")
	}
}

func TestGroupsSorted(t *testing.T) {
	r := NewRegistry()
	r.Group("b")
	r.Group("a")
	r.Group("c")
	gs := r.Groups()
	if gs[0].Name() != "a" || gs[1].Name() != "b" || gs[2].Name() != "c" {
		t.Fatalf("groups not sorted: %v %v %v", gs[0].Name(), gs[1].Name(), gs[2].Name())
	}
}

// Property: the distribution mean always lies within [min, max], and
// count equals the number of samples.
func TestDistributionProperty(t *testing.T) {
	f := func(vals []float64) bool {
		g := NewGroup("g")
		d := g.Distribution("d", "")
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float saturation noise.
			if math.Abs(v) > 1e12 {
				continue
			}
			d.Sample(v)
			n++
		}
		if d.Count() != uint64(n) {
			return false
		}
		if n == 0 {
			return true
		}
		m := d.Mean()
		return m >= d.Min()-1e-6 && m <= d.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
