package core

// Heterogeneous clusters: slot validation, config resolution, and
// mixed-kind functional correctness.

import (
	"fmt"
	"math/rand"
	"testing"

	"accesys/internal/accel"
	"accesys/internal/driver"
	"accesys/internal/mem"
)

func TestValidateCluster(t *testing.T) {
	for _, c := range []struct {
		slots []ClusterSlot
		ok    bool
	}{
		{nil, true},
		{[]ClusterSlot{{Kind: "gemm", N: 2}}, true},
		{[]ClusterSlot{{Kind: "gemm", N: 1}, {Kind: "vit", N: 1}, {Kind: "hpc", N: 3}}, true},
		{[]ClusterSlot{{Kind: "tpu", N: 1}}, false},
		{[]ClusterSlot{{Kind: "gemm", N: 0}}, false},
		{[]ClusterSlot{{Kind: "", N: 1}}, false},
	} {
		if err := ValidateCluster(c.slots); (err == nil) != c.ok {
			t.Errorf("ValidateCluster(%v) = %v, want ok=%v", c.slots, err, c.ok)
		}
	}
}

func TestClusterConfigResolution(t *testing.T) {
	cfg := PCIe8GB()
	cfg.Cluster = []ClusterSlot{{Kind: "gemm", N: 2}, {Kind: "hpc", N: 1}}
	cfg = cfg.Resolved()
	if cfg.Accelerators != 3 || cfg.NumAccels() != 3 {
		t.Fatalf("cluster did not resolve accelerator count: %d", cfg.Accelerators)
	}
	for i, want := range []string{"gemm", "gemm", "hpc"} {
		if got := cfg.MemberKind(i); got != want {
			t.Fatalf("MemberKind(%d) = %q, want %q", i, got, want)
		}
	}
	// Member configs inherit the base and apply the kind preset.
	base := cfg.MemberAccel(0)
	hpc := cfg.MemberAccel(2)
	if hpc.ClockMHz <= base.ClockMHz || hpc.LocalBufBytes <= base.LocalBufBytes {
		t.Fatalf("hpc preset not applied: base %+v hpc %+v", base, hpc)
	}
	// A homogeneous config stays a 1-member gemm cluster.
	plain := PCIe8GB().Resolved()
	if plain.NumAccels() != 1 || plain.MemberKind(0) != "gemm" {
		t.Fatalf("homogeneous resolution broken: %d %q", plain.NumAccels(), plain.MemberKind(0))
	}
}

func TestHeterogeneousClusterFunctional(t *testing.T) {
	// A mixed gemm+hpc farm computes correct results on both members,
	// and the hpc member's faster clock shows up as less compute-busy
	// time for identical work.
	cfg := PCIe8GB()
	cfg.Name = "hetero"
	cfg.Functional = true
	cfg.Cluster = []ClusterSlot{{Kind: "gemm", N: 1}, {Kind: "hpc", N: 1}}
	cfg.SMMU.Bypass = true
	sys := Build(cfg)
	if len(sys.Accels) != 2 {
		t.Fatalf("accels = %d, want 2", len(sys.Accels))
	}

	mk := func(i int, lo, hi uint64) *driver.Driver {
		return driver.New(fmt.Sprintf("hetero.drv%d", i), sys.EQ, sys.Stats, driver.Deps{
			EQ: sys.EQ, Packets: sys.Packets, MMIO: sys.AttachHostPort(fmt.Sprintf("drv%d", i)),
			FuncHost: sys.FuncHost(), FuncDev: sys.FuncDev(),
			SMMU: sys.SMMU, Accel: sys.Accels[i],
			BARBase:   BARBase + uint64(i)*BARSize,
			HostRange: mem.Range(lo, hi-lo), DevRange: sys.Cfg.DevRange(),
			IOVABase: IOVABase,
		}, driver.Config{NoIOMMU: true})
	}
	d0 := mk(0, 0, 128<<20)
	d1 := mk(1, 128<<20, 256<<20)

	rng := rand.New(rand.NewSource(7))
	n := 64
	a0, b0 := randMat(rng, n*n), randMat(rng, n*n)
	a1, b1 := randMat(rng, n*n), randMat(rng, n*n)
	var r0, r1 driver.Result
	d0.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a0, B: b0}, func(r driver.Result) { r0 = r })
	d1.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a1, B: b1}, func(r driver.Result) { r1 = r })
	sys.Run()

	if r0.C == nil || r1.C == nil {
		t.Fatal("heterogeneous jobs did not complete")
	}
	w0 := accel.MatMulRef(a0, b0, n, n, n)
	w1 := accel.MatMulRef(a1, b1, n, n, n)
	for i := range w0 {
		if r0.C[i] != w0[i] || r1.C[i] != w1[i] {
			t.Fatalf("heterogeneous member result wrong at %d", i)
		}
	}
	if r1.Job.ComputeBusy >= r0.Job.ComputeBusy {
		t.Fatalf("hpc member (%v busy) not faster than gemm member (%v busy)",
			r1.Job.ComputeBusy, r0.Job.ComputeBusy)
	}
}
