// Quickstart: build the paper's Table II system, offload one GEMM to
// the MatrixFlow accelerator through the kernel driver, verify the
// result against a reference multiplication, and dump key statistics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"

	"accesys/internal/accel"
	"accesys/internal/core"
	"accesys/internal/driver"
	"accesys/internal/scenario"
)

func main() {
	// A complete system: 1 GHz CPU cluster, DDR4 host memory behind a
	// 2 MiB LLC, an 8 GB/s PCIe link, SMMU, IOCache, and the 16x16
	// systolic-array accelerator.
	cfg := core.PCIe8GB()
	cfg.Functional = true // carry real data end to end
	sys, drv := scenario.BuildSystem(cfg)

	// Random operands for C = A x B with M = N = K = 128.
	const n = 128
	rng := rand.New(rand.NewSource(1))
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for i := range a {
		a[i] = int32(rng.Intn(17) - 8)
		b[i] = int32(rng.Intn(17) - 8)
	}

	// The driver stages packed operands in host memory, maps them into
	// the device's IOVA space via SMMU page tables, programs the CSRs
	// over PCIe, and rings the doorbell.
	var res driver.Result
	drv.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a, B: b}, func(r driver.Result) {
		res = r
	})
	sys.Run()

	want := accel.MatMulRef(a, b, n, n, n)
	for i := range want {
		if res.C[i] != want[i] {
			fmt.Fprintf(os.Stderr, "MISMATCH at %d: %d != %d\n", i, res.C[i], want[i])
			os.Exit(1)
		}
	}

	fmt.Printf("GEMM %dx%dx%d verified against reference.\n", n, n, n)
	fmt.Printf("  simulated time:   %v\n", res.Job.Duration())
	fmt.Printf("  tiles computed:   %d\n", res.Job.Tiles)
	fmt.Printf("  bytes streamed:   %d in / %d out\n", res.Job.BytesIn, res.Job.BytesOut)
	fmt.Printf("  SMMU pages:       %d\n", res.PagesMapped)
	fmt.Printf("  array busy:       %v (%.0f%% of job)\n", res.Job.ComputeBusy,
		100*float64(res.Job.ComputeBusy)/float64(res.Job.Duration()))

	for _, stat := range []string{
		"PCIe-8GB.smmu.translations",
		"PCIe-8GB.smmu.ptws",
		"PCIe-8GB.iocache.hit_rate",
		"PCIe-8GB.hostmem.row_hit_rate",
		"PCIe-8GB.pcie.rc.tlps_up",
	} {
		fmt.Printf("  %-34s %.3f\n", stat, sys.Stats.Lookup(stat).Value())
	}
}
