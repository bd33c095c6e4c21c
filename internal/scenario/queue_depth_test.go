package scenario

import (
	"testing"

	"accesys/internal/core"
	"accesys/internal/driver"
)

// The event queue keeps its pending set in one sorted slice, whose
// insert is linear in the set's size. That beats a heap only while the
// set stays small: sim's BenchmarkEventQueuePending crosses over
// between 32 and 64 pending entries. This guard drives the matrix's
// most event-heavy fig4 point — GEMM-512 over PCIe-8GB with 64-B host
// DMA packets — and the widest farm the built-in scenarios run — eight
// members co-running GEMM-128 at 64-B and 256-B packets — one Step at
// a time and pins the peak (22 and 27 when written). It is the
// whole-system twin of pcie's TestQueueDepthStaysBounded.
func TestSystemQueueDepthStaysBounded(t *testing.T) {
	fig4 := core.PCIe8GB()
	fig4.Accel.HostDMA.BurstBytes = 64
	farm := func(packet int) core.Config {
		cfg := core.PCIe8GB()
		cfg.Accelerators = 8
		cfg.SMMU.Bypass = true // AttachFarm's precondition
		cfg.Accel.HostDMA.BurstBytes = packet
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		n    int
	}{
		{"fig4-gemm512-64B", fig4, 512},
		{"farm8-gemm128-64B", farm(64), 128},
		{"farm8-gemm128-256B", farm(256), 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := core.Build(tc.cfg)
			var drvs []*driver.Driver
			if tc.cfg.Accelerators > 1 {
				drvs = sys.AttachFarm()
			} else {
				drvs = []*driver.Driver{sys.AttachDriver()}
			}
			pending := len(drvs)
			for _, drv := range drvs {
				drv.RunGEMM(driver.GEMMSpec{M: tc.n, N: tc.n, K: tc.n}, func(driver.Result) { pending-- })
			}
			peak, steps := 0, 0
			for sys.EQ.Step() {
				steps++
				peak = max(peak, sys.EQ.Len())
			}
			if pending != 0 {
				t.Fatalf("%d of %d GEMMs never completed; the queue drained after %d steps", pending, len(drvs), steps)
			}
			t.Logf("event queue peaked at %d entries over %d steps", peak, steps)
			const limit = 32
			if peak > limit {
				t.Fatalf("event queue peaked at %d entries over %d steps, want <= %d: the sorted pending slice "+
					"loses to a heap from about 32 to 64 entries (BenchmarkEventQueuePending), so re-measure "+
					"BenchmarkFig4SmallPacket before letting the model grow the queue", peak, steps, limit)
			}
		})
	}
}
