package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRooflineShape(t *testing.T) {
	r := Roofline{Tiles: 4096, TransferNs: 1.5e6, FixedNs: 1000}
	// Deep in the compute-bound region: time scales linearly.
	t1 := r.ExecTimeNs(1000)
	t2 := r.ExecTimeNs(2000)
	if math.Abs(t2-t1-4096*1000) > 1 {
		t.Fatalf("compute-bound region not linear: %v -> %v", t1, t2)
	}
	// Below the knee: plateau at the transfer floor.
	knee := r.KneeNs()
	if math.Abs(knee-1.5e6/4096) > 1e-9 {
		t.Fatalf("knee = %v", knee)
	}
	lo := r.ExecTimeNs(knee / 10)
	lo2 := r.ExecTimeNs(knee / 100)
	if lo != lo2 {
		t.Fatal("plateau should be flat below the knee")
	}
	if lo != 1.5e6+1000 {
		t.Fatalf("plateau = %v", lo)
	}
}

func TestCompositionEndpoints(t *testing.T) {
	m := Composition{TOtherNs: 100}
	c := Config{Name: "x", GEMMNs: 1000, NonGEMMs: 5000}
	if m.TimeNs(c, 0) != 1100 {
		t.Fatalf("w=0: %v", m.TimeNs(c, 0))
	}
	if m.TimeNs(c, 1) != 5100 {
		t.Fatalf("w=1: %v", m.TimeNs(c, 1))
	}
}

func TestCrossoverMatchesPaperAlgebra(t *testing.T) {
	// DevMem: faster GEMM, slower Non-GEMM. PCIe: the reverse.
	dev := Config{Name: "DevMem", GEMMNs: 800, NonGEMMs: 6000}
	pcie := Config{Name: "PCIe", GEMMNs: 2000, NonGEMMs: 1000}
	m := Composition{}
	w, ok := m.Crossover(dev, pcie)
	if !ok {
		t.Fatal("crossover should exist")
	}
	// At the crossover both configurations take the same time.
	if math.Abs(m.TimeNs(dev, w)-m.TimeNs(pcie, w)) > 1e-9 {
		t.Fatalf("times differ at crossover w=%v", w)
	}
	// Below the crossover DevMem (faster GEMM) wins.
	if m.TimeNs(dev, w/2) >= m.TimeNs(pcie, w/2) {
		t.Fatal("DevMem should win below the crossover")
	}
	if m.TimeNs(dev, (1+w)/2) <= m.TimeNs(pcie, (1+w)/2) {
		t.Fatal("PCIe should win above the crossover")
	}
}

// TestCrossoverDecreasesWithPCIeBandwidth reproduces the paper's
// Fig. 9 trend: as PCIe bandwidth grows (GEMM time shrinks), the
// Non-GEMM fraction below which DevMem wins gets smaller.
func TestCrossoverDecreasesWithPCIeBandwidth(t *testing.T) {
	m := Composition{}
	dev := Config{Name: "DevMem", GEMMNs: 800, NonGEMMs: 6000}
	var last float64 = 1
	for _, gemm := range []float64{4000, 2000, 1000} { // rising bandwidth
		pcie := Config{Name: "PCIe", GEMMNs: gemm, NonGEMMs: 1000}
		w, ok := m.Crossover(dev, pcie)
		if !ok {
			t.Fatalf("no crossover for pcie gemm=%v", gemm)
		}
		if w >= last {
			t.Fatalf("crossover should shrink with bandwidth: %v -> %v", last, w)
		}
		last = w
	}
}

func TestCrossoverDegenerate(t *testing.T) {
	m := Composition{}
	a := Config{GEMMNs: 1000, NonGEMMs: 1000}
	if _, ok := m.Crossover(a, a); ok {
		t.Fatal("identical configs have no interior crossover")
	}
	// Strictly dominant config: crossover outside (0,1).
	b := Config{GEMMNs: 2000, NonGEMMs: 2000}
	if _, ok := m.Crossover(a, b); ok {
		t.Fatal("dominated config should have no interior crossover")
	}
}

// Property: the model is linear in w, so the crossover (when interior)
// is unique and consistent with a fine scan.
func TestCrossoverProperty(t *testing.T) {
	f := func(g1, n1, g2, n2 uint16) bool {
		a := Config{GEMMNs: float64(g1) + 1, NonGEMMs: float64(n1) + 1}
		b := Config{GEMMNs: float64(g2) + 1, NonGEMMs: float64(n2) + 1}
		m := Composition{}
		w, ok := m.Crossover(a, b)
		if !ok {
			return true
		}
		// Check sign flip around w.
		lo := m.TimeNs(a, math.Max(0, w-0.01)) - m.TimeNs(b, math.Max(0, w-0.01))
		hi := m.TimeNs(a, math.Min(1, w+0.01)) - m.TimeNs(b, math.Min(1, w+0.01))
		return lo*hi <= 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("w>1 should panic")
		}
	}()
	Composition{}.TimeNs(Config{}, 1.5)
}
