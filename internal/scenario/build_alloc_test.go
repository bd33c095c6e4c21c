package scenario

import (
	"runtime"
	"testing"

	"accesys/internal/core"
	"accesys/internal/driver"
)

// Assembling a system must stay cheap: caches and the SMMU TLB keep
// their sets in a few arrays per component, so allocations per build
// do not scale with the number of sets, and caches and the main TLB
// allocate their state only for the sets a run fills, so a build's
// bytes do not scale with cache or TLB capacity (the 2-MiB LLC's eager
// line array alone was 512 KiB; its payload-chunk header and the eager
// TLB were 12 and 16 KiB of a 93-KB build). This is the regression
// gate against per-set allocation and eager state creeping back into
// construction: a build now allocates about 64 KB.
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

	const byteCeiling = 80 << 10
	if bytes := bytesPerRun(20, func() { BuildSystem(cfg) }); bytes > byteCeiling {
		t.Fatalf("BuildSystem(PCIe8GB) allocated %d bytes, want <= %d", bytes, byteCeiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// allocated by one call of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A cold point's run must cost memory only for the state it holds: a
// timing-only GEMM stores no data, so its caches hold payloads only for
// the page-table lines and the few other non-zero words, its DMA reads
// carry no payload, and a DC GEMM-128, which touches every LLC set but
// fills one or two of each set's 16 ways, allocates narrow line-state
// blocks. This is the regression gate against payload or full-width
// line state allocated on every fill (with both, the run allocated
// about 1,046,000 bytes), against 64-line payload chunks and zeroed
// DMA read payloads (with them, about 383,000) and against per-burst
// garbage: the run now allocates about 281,000 bytes.
func TestGEMMRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := core.PCIe8GB()
	if cfg.Access != core.DC {
		t.Fatalf("PCIe8GB access method %v, want DC", cfg.Access)
	}
	const byteCeiling = 300 << 10
	if bytes := bytesPerRun(5, func() { TimeGEMM(cfg, 128) }); bytes > byteCeiling {
		t.Fatalf("TimeGEMM(PCIe8GB, 128) allocated %d bytes, want <= %d", bytes, byteCeiling)
	}
}

// A job that repeats, on the same system, one that has just run holds
// little new state: its buffers map to new pages, but its bursts,
// descriptors, tiles and page walks reuse the records, callbacks and
// queues the first job left behind. So what the second job allocates
// is bounded by a few hundred mallocs however many events it runs, and
// per-operation garbage shows as thousands: with a record per DMA
// descriptor and page walk, a closure per tile and transfer start and
// queues that re-grew, the second GEMM-256 allocated about 2,700 times
// on PCIe-8GB and 1,600 on DevMem; now about 90 and 120.
func TestRepeatedJobAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 300
	for _, cfg := range []core.Config{core.PCIe8GB(), core.DevMemCfg()} {
		sys, drv := BuildSystem(cfg)
		job := func() {
			done := false
			drv.RunGEMM(driver.GEMMSpec{M: 256, N: 256, K: 256}, func(driver.Result) { done = true })
			sys.Run()
			if !done {
				t.Fatalf("%s: GEMM-256 did not finish", cfg.Name)
			}
		}
		job()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > ceiling {
			t.Errorf("%s: a repeated GEMM-256 allocated %d times, want <= %d", cfg.Name, n, ceiling)
		}
	}
}

// Building a warm pass's points must stay lean: a warm re-run of fig4
// resolves and fingerprints 35 points before its 35 cache hits, and
// each point's 1 KB config is built once, in the runs slice, and
// shared by its point and fingerprint rather than copied or boxed.
// This is the regression gate against per-point config copies and
// JSON canonicalisation creeping back into expansion: with both, a
// pass allocated about 196,800 bytes.
func TestWarmPassAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc := MustBuiltin("fig4")
	pass := func() {
		sp, err := sc.Space(false)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := sp.runs()
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Points(runs)) != 35 {
			t.Fatal("fig4 no longer has 35 quick points")
		}
	}
	const byteCeiling = 100 << 10
	if bytes := bytesPerRun(20, pass); bytes > byteCeiling {
		t.Fatalf("a warm fig4 pass's Space+runs+Points allocated %d bytes, want <= %d", bytes, byteCeiling)
	}
}
