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
// DMA packets — one Step at a time and pins the peak (22 when
// written). It is the whole-system twin of pcie's
// TestQueueDepthStaysBounded.
func TestSystemQueueDepthStaysBounded(t *testing.T) {
	cfg := core.PCIe8GB()
	cfg.Accel.HostDMA.BurstBytes = 64
	sys, drv := BuildSystem(cfg)
	done := false
	drv.RunGEMM(driver.GEMMSpec{M: 512, N: 512, K: 512}, func(driver.Result) { done = true })
	peak, steps := 0, 0
	for sys.EQ.Step() {
		steps++
		peak = max(peak, sys.EQ.Len())
	}
	if !done {
		t.Fatalf("GEMM never completed; the queue drained after %d steps", steps)
	}
	t.Logf("event queue peaked at %d entries over %d steps", peak, steps)
	const limit = 32
	if peak > limit {
		t.Fatalf("event queue peaked at %d entries over %d steps, want <= %d: the sorted pending slice "+
			"loses to a heap from about 32 to 64 entries (BenchmarkEventQueuePending), so re-measure "+
			"BenchmarkFig4SmallPacket before letting the model grow the queue", peak, steps, limit)
	}
}
