package core

import (
	"math/rand"
	"reflect"
	"testing"

	"accesys/internal/accel"
	"accesys/internal/cache"
	"accesys/internal/cpu"
	"accesys/internal/driver"
	"accesys/internal/sim"
)

func randMat(rng *rand.Rand, n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = int32(rng.Intn(13) - 6)
	}
	return m
}

// runGEMM launches one functional GEMM and returns the result.
func runGEMM(t *testing.T, cfg Config, n int) (driver.Result, *System) {
	t.Helper()
	cfg.Functional = true
	sys := Build(cfg)
	drv := sys.AttachDriver()
	rng := rand.New(rand.NewSource(42))
	a := randMat(rng, n*n)
	b := randMat(rng, n*n)

	var res driver.Result
	got := false
	drv.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a, B: b}, func(r driver.Result) {
		res = r
		got = true
	})
	sys.Run()
	if !got {
		t.Fatalf("%s: GEMM did not complete", cfg.Name)
	}

	want := accel.MatMulRef(a, b, n, n, n)
	for i := range want {
		if res.C[i] != want[i] {
			t.Fatalf("%s: C[%d] = %d, want %d", cfg.Name, i, res.C[i], want[i])
		}
	}
	return res, sys
}

func TestGEMMThroughFullSystemDC(t *testing.T) {
	res, sys := runGEMM(t, PCIe8GB(), 64)
	if res.Job.Tiles != 16 {
		t.Fatalf("tiles = %d, want 16", res.Job.Tiles)
	}
	// The DMA path must have used the SMMU: translations > 0.
	if sys.Stats.Lookup("PCIe-8GB.smmu.translations").Value() == 0 {
		t.Fatal("DC-mode DMA must translate through the SMMU")
	}
	// Footprint: 3 buffers of 64x64x4 = 16 KiB -> 4 pages each.
	if res.PagesMapped != 12 {
		t.Fatalf("pages mapped = %d, want 12", res.PagesMapped)
	}
	// The IOCache saw the traffic.
	if sys.Stats.Lookup("PCIe-8GB.iocache.hits").Value()+
		sys.Stats.Lookup("PCIe-8GB.iocache.misses").Value() == 0 {
		t.Fatal("DC mode must route DMA through the IOCache")
	}
}

func TestGEMMThroughFullSystemDM(t *testing.T) {
	cfg := PCIe8GB()
	cfg.Name = "dm"
	cfg.Access = DM
	res, sys := runGEMM(t, cfg, 64)
	if res.C == nil {
		t.Fatal("no result")
	}
	// DM traffic bypasses cache allocation.
	if sys.Stats.Lookup("dm.iocache.bypasses").Value() == 0 {
		t.Fatal("DM mode must bypass the IOCache")
	}
}

func TestGEMMThroughFullSystemDevMem(t *testing.T) {
	cfg := DevMemCfg()
	cfg.Functional = true
	res, sys := runGEMM(t, cfg, 64)
	if res.C == nil {
		t.Fatal("no result")
	}
	// DevMem mode: no SMMU translations for operand traffic (only the
	// MSI write goes upstream, untranslated pages... the MSI write does
	// translate; operand traffic must not dominate).
	tr := sys.Stats.Lookup("DevMem.smmu.translations").Value()
	if tr > 4 {
		t.Fatalf("DevMem mode should barely touch the SMMU, translations=%v", tr)
	}
	// Device DRAM served the operands.
	if sys.Stats.Lookup("DevMem.devmem.reads").Value() == 0 {
		t.Fatal("DevMem mode must read from device DRAM")
	}
}

func TestCPUNUMAPenaltyOnDevMem(t *testing.T) {
	// The paper's Fig. 8 mechanism: CPU operators touching device
	// memory across PCIe are far slower than on host DRAM.
	cfg := PCIe8GB()
	cfg.Name = "numa"
	sys := Build(cfg)

	hostBuf := uint64(0x100000)
	devBuf := DevMemBase + 0x10000

	var tHost, tDev sim.Tick
	start := sys.Now()
	sys.CPU.Run([]cpu.Op{{Name: "near", ReadAddr: hostBuf, ReadBytes: 64 << 10}}, func() {
		tHost = sys.Now() - start
		mid := sys.Now()
		sys.CPU.Run([]cpu.Op{{Name: "far", ReadAddr: devBuf, ReadBytes: 64 << 10}}, func() {
			tDev = sys.Now() - mid
		})
	})
	sys.Run()
	if tHost == 0 || tDev == 0 {
		t.Fatal("CPU ops did not run")
	}
	ratio := float64(tDev) / float64(tHost)
	if ratio < 3 {
		t.Fatalf("NUMA penalty ratio = %.1f, want >= 3 (host=%v dev=%v)", ratio, tHost, tDev)
	}
}

func TestSimpleHostMemSweepHook(t *testing.T) {
	// Fig. 6 substrate: host memory as fixed-latency/bandwidth model.
	cfg := PCIe8GB()
	cfg.Name = "simple"
	cfg.Functional = true
	cfg.HostSimple = &SimpleMemParams{Latency: 30 * sim.Nanosecond, BandwidthGBps: 50}
	res, sys := runGEMM(t, cfg, 64)
	if res.C == nil {
		t.Fatal("no result")
	}
	if sys.HostSimple == nil || sys.HostDRAM != nil {
		t.Fatal("HostSimple should replace the banked DRAM")
	}
}

func TestTableIIDefaults(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	if cfg.CPUClockMHz != 1000 {
		t.Fatal("CPU clock default should be 1 GHz")
	}
	if cfg.L1DBytes != 64<<10 || cfg.LLCBytes != 2<<20 || cfg.IOCacheB != 32<<10 {
		t.Fatal("cache sizes should match Table II")
	}
	if cfg.HostSpec.Name != "DDR3-1600" {
		t.Fatalf("host memory default = %s, want DDR3-1600", cfg.HostSpec.Name)
	}
	if cfg.PCIe.Link.Lanes != 4 || cfg.PCIe.Link.LaneGbps != 4 {
		t.Fatal("PCIe default should be 4 lanes x 4 Gbps")
	}
}

// TestEveryCacheIsDriven checks that every cache field of a built
// System has a requester bound to its CPU-side port. A cache nothing
// drives still costs a build, an LLC snoop per request and a DM flush.
func TestEveryCacheIsDriven(t *testing.T) {
	farm := PCIe8GB()
	farm.Name, farm.Accelerators = "farm", 2
	for _, cfg := range []Config{PCIe8GB(), DevMemCfg(), farm} {
		v := reflect.ValueOf(Build(cfg)).Elem()
		for i := 0; i < v.NumField(); i++ {
			if c, ok := v.Field(i).Interface().(*cache.Cache); ok && c.CPUPort().Peer() == nil {
				t.Errorf("%s: %s has no requester on its CPU-side port", cfg.Name, v.Type().Field(i).Name)
			}
		}
	}
}

func TestSequentialJobsSameSystem(t *testing.T) {
	cfg := PCIe8GB()
	cfg.Name = "seq"
	cfg.Functional = true
	sys := Build(cfg)
	drv := sys.AttachDriver()
	rng := rand.New(rand.NewSource(7))

	n := 32
	a1, b1 := randMat(rng, n*n), randMat(rng, n*n)
	a2, b2 := randMat(rng, n*n), randMat(rng, n*n)
	var r1, r2 driver.Result
	drv.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a1, B: b1}, func(r driver.Result) {
		r1 = r
		drv.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a2, B: b2}, func(r driver.Result) {
			r2 = r
		})
	})
	sys.Run()
	w1 := accel.MatMulRef(a1, b1, n, n, n)
	w2 := accel.MatMulRef(a2, b2, n, n, n)
	for i := range w1 {
		if r1.C[i] != w1[i] {
			t.Fatalf("job1 C[%d] wrong", i)
		}
		if r2.C[i] != w2[i] {
			t.Fatalf("job2 C[%d] wrong", i)
		}
	}
	if r2.Launched < r1.Completed {
		t.Fatal("jobs must serialize")
	}
}
