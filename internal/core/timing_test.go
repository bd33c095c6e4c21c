package core_test

// Timing-only checks of the assembled system. They time their points
// through the scenario runners, the same path every figure takes.

import (
	"testing"

	"accesys/internal/core"
	"accesys/internal/scenario"
	"accesys/internal/sim"
)

func gemmTime(cfg core.Config, n int) sim.Tick {
	d, _, _ := scenario.TimeGEMM(cfg, n)
	return d
}

func TestBandwidthOrderingAcrossConfigs(t *testing.T) {
	// Timing-only GEMM at the three PCIe tiers: higher bandwidth,
	// lower time (memory-bound region, paper Fig. 3 / Fig. 7).
	t2 := gemmTime(core.PCIe2GB(), 256)
	t8 := gemmTime(core.PCIe8GB(), 256)
	t64 := gemmTime(core.PCIe64GB(), 256)
	if !(t64 < t8 && t8 < t2) {
		t.Fatalf("bandwidth ordering violated: 2GB=%v 8GB=%v 64GB=%v", t2, t8, t64)
	}
	if float64(t2)/float64(t8) < 1.5 {
		t.Fatalf("2GB/s vs 8GB/s speedup only %.2f", float64(t2)/float64(t8))
	}
}

func TestDevMemBeatsLowBandwidthPCIe(t *testing.T) {
	// Paper Fig. 5: device-side memory outperforms host memory behind
	// a slow link.
	tPCIe := gemmTime(core.PCIe2GB(), 256)
	tDev := gemmTime(core.DevMemCfg(), 256)
	if tDev >= tPCIe {
		t.Fatalf("DevMem (%v) should beat PCIe-2GB (%v)", tDev, tPCIe)
	}
}

func TestComputeOverrideKnob(t *testing.T) {
	// Fig. 2 substrate: the compute-time override must swing the job
	// into the compute-bound region.
	dur := func(override sim.Tick) sim.Tick {
		cfg := core.PCIe8GB()
		cfg.Name = "roofline"
		cfg.Accel.ComputeOverride = override
		return gemmTime(cfg, 128)
	}
	fast := dur(10 * sim.Nanosecond)
	slow := dur(5 * sim.Microsecond)
	if float64(slow) < 2*float64(fast) {
		t.Fatalf("compute override has no effect: fast=%v slow=%v", fast, slow)
	}
}

// TestClusterContention verifies the shared link is a real resource:
// two concurrent jobs take longer than one, but less than two serial
// ones.
func TestClusterContention(t *testing.T) {
	cfg := core.PCIe2GB()
	cfg.Name = "contend"
	cfg.Accelerators = 2
	cfg.SMMU.Bypass = true
	shared, solo := scenario.SimTenants(cfg, []scenario.TenantJob{{N: 256, Jobs: 1}, {N: 256, Jobs: 1}})
	single, worst := solo[0], max(shared[0], shared[1])
	if worst <= single+single/10 {
		t.Fatalf("no contention visible: single=%v concurrent-worst=%v", single, worst)
	}
	if worst >= 2*single {
		t.Fatalf("cluster fully serialized: single=%v concurrent-worst=%v", single, worst)
	}
}
