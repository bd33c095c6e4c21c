package scenario

import (
	"testing"

	"accesys/internal/core"
)

// Assembling a system must stay cheap: caches and the SMMU TLB keep
// their sets in one flat array per component, so allocations per build
// do not scale with the number of sets. This is the regression gate
// against per-set allocation creeping back into construction.
func TestBuildSystemAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := core.PCIe8GB()
	const ceiling = 1000
	allocs := testing.AllocsPerRun(20, func() {
		BuildSystem(cfg)
	})
	if allocs > ceiling {
		t.Fatalf("BuildSystem(PCIe8GB) allocated %.0f times, want <= %d", allocs, ceiling)
	}
}
