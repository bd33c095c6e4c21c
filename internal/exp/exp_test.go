package exp

import (
	"strings"
	"testing"

	"accesys/internal/core"
	"accesys/internal/driver"
	"accesys/internal/scenario"
	"accesys/internal/sim"
	"accesys/internal/workload"
)

func TestIDsResolve(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q does not resolve", id)
		}
		if _, ok := scenario.Builtin(id); !ok {
			t.Fatalf("experiment %q has no built-in scenario", id)
		}
	}
	// accesys equiv resolves experiment ids as built-in scenarios, so
	// the two sets must be the same.
	if n := len(scenario.BuiltinNames()); n != len(IDs()) {
		t.Fatalf("%d built-in scenarios for %d experiments", n, len(IDs()))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id should not resolve")
	}
}

func TestResultFprint(t *testing.T) {
	r := &Result{
		ID:      "figX",
		Title:   "demo",
		Headers: []string{"a", "b"},
	}
	r.AddRow("1", "2")
	r.Note("a note %d", 7)
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"figX", "demo", "a  b", "1  2", "# a note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTimeGEMMAcrossConfigs(t *testing.T) {
	for _, cfg := range []core.Config{core.PCIe2GB(), core.PCIe8GB(), core.PCIe64GB(), core.DevMemCfg()} {
		d, sys, res := scenario.TimeGEMM(cfg, 64)
		if d == 0 {
			t.Fatalf("%s: zero duration", cfg.Name)
		}
		if res.Job.Tiles != 16 {
			t.Fatalf("%s: tiles = %d", cfg.Name, res.Job.Tiles)
		}
		_ = sys
	}
}

// miniViT is a scaled-down variant keeping the test fast while
// exercising the full chain of GEMM offloads and CPU operators.
var miniViT = workload.ViTVariant{Name: "ViT-Mini", Hidden: 128, Heads: 4, Layers: 2, MLP: 4}

func TestRunViTChainsAllItems(t *testing.T) {
	cfg := core.PCIe8GB()
	times := scenario.SimViT(cfg, miniViT)
	if times.GEMM == 0 || times.NonGEMM == 0 {
		t.Fatalf("split missing: gemm=%v nongemm=%v", times.GEMM, times.NonGEMM)
	}
}

func TestViTDevMemNonGEMMPenalty(t *testing.T) {
	host := scenario.SimViT(core.PCIe8GB(), miniViT)
	dev := scenario.SimViT(core.DevMemCfg(), miniViT)
	if !(dev.NonGEMM > host.NonGEMM) {
		t.Fatalf("DevMem Non-GEMM (%v) should exceed host (%v)", dev.NonGEMM, host.NonGEMM)
	}
	// The GEMM-side DevMem win needs real matrix sizes to amortize the
	// 64 B device bursts; it is asserted at scale in core's
	// TestDevMemBeatsLowBandwidthPCIe and visible in fig8.
	ratio := float64(dev.NonGEMM) / float64(host.NonGEMM)
	if ratio < 1.2 {
		t.Fatalf("NUMA penalty too small on mini ViT: %.2f", ratio)
	}
}

func TestBuildSystemDriverRoundtrip(t *testing.T) {
	cfg := core.PCIe8GB()
	cfg.Name = "roundtrip"
	cfg.Functional = true
	sys, drv := scenario.BuildSystem(cfg)
	a := make([]int32, 32*32)
	b := make([]int32, 32*32)
	for i := range a {
		a[i] = int32(i % 7)
		b[i] = int32(i % 5)
	}
	var done bool
	drv.RunGEMM(driver.GEMMSpec{M: 32, N: 32, K: 32, A: a, B: b}, func(r driver.Result) {
		done = r.C != nil
	})
	sys.Run()
	if !done {
		t.Fatal("functional GEMM through BuildSystem failed")
	}
}

func TestTab4SmallestColumn(t *testing.T) {
	// Run just the smallest matrix of Table IV end to end.
	cfg := core.PCIe8GB()
	cfg.Name = "tab4test"
	d, sys, res := scenario.TimeGEMM(cfg, 64)
	if res.PagesMapped != 12 {
		t.Fatalf("pages = %d, want 12 (paper Table IV)", res.PagesMapped)
	}
	if sys.Stats.Lookup("tab4test.smmu.translations").Value() == 0 {
		t.Fatal("no translations recorded")
	}
	if d < sim.Microsecond {
		t.Fatalf("implausibly fast: %v", d)
	}
}
