package core

// Accelerator clusters: slot validation, config resolution, the farm
// driver wiring, and concurrent functional correctness.

import (
	"fmt"
	"math/rand"
	"strings"
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

// TestAcceleratorCluster exercises the paper's "accelerator cluster"
// box: two MatrixFlow instances behind the switch, each with its own
// endpoint, BAR, and driver (AttachFarm), running concurrent
// functional GEMMs. The shared SMMU models a single translation
// stream, so the cluster runs with physical addressing. A mixed
// gemm+hpc cluster must also show the hpc member's faster clock as
// less compute-busy time for identical work.
func TestAcceleratorCluster(t *testing.T) {
	for _, tc := range []struct {
		name    string
		accels  int
		cluster []ClusterSlot
		seed    int64
	}{
		{"cluster", 2, nil, 11},
		{"hetero", 0, []ClusterSlot{{Kind: "gemm", N: 1}, {Kind: "hpc", N: 1}}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PCIe8GB()
			cfg.Name = tc.name
			cfg.Functional = true
			cfg.Accelerators = tc.accels
			cfg.Cluster = tc.cluster
			cfg.SMMU.Bypass = true
			sys := Build(cfg)
			if len(sys.Accels) != 2 {
				t.Fatalf("accels = %d, want 2", len(sys.Accels))
			}
			drvs := sys.AttachFarm()

			rng := rand.New(rand.NewSource(tc.seed))
			n := 64
			a0, b0 := randMat(rng, n*n), randMat(rng, n*n)
			a1, b1 := randMat(rng, n*n), randMat(rng, n*n)
			var r0, r1 driver.Result
			drvs[0].RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a0, B: b0}, func(r driver.Result) { r0 = r })
			drvs[1].RunGEMM(driver.GEMMSpec{M: n, N: n, K: n, A: a1, B: b1}, func(r driver.Result) { r1 = r })
			sys.Run()

			if r0.C == nil || r1.C == nil {
				t.Fatal("cluster jobs did not complete")
			}
			w0 := accel.MatMulRef(a0, b0, n, n, n)
			w1 := accel.MatMulRef(a1, b1, n, n, n)
			for i := range w0 {
				if r0.C[i] != w0[i] || r1.C[i] != w1[i] {
					t.Fatalf("member result wrong at %d", i)
				}
			}
			// True concurrency: the second job must not have waited for
			// the first (both launched at tick 0).
			if r1.Launched >= r0.Completed {
				t.Fatal("cluster jobs serialized")
			}
			// And both endpoints carried traffic.
			for i := 0; i < 2; i++ {
				if sys.Stats.Lookup(fmt.Sprintf("%s.pcie.ep%d.tlps_up", tc.name, i)).Value() == 0 {
					t.Fatalf("endpoint %d saw no traffic", i)
				}
			}
			if sys.Cfg.MemberKind(1) == "hpc" && r1.Job.ComputeBusy >= r0.Job.ComputeBusy {
				t.Fatalf("hpc member (%v busy) not faster than gemm member (%v busy)",
					r1.Job.ComputeBusy, r0.Job.ComputeBusy)
			}
		})
	}
}

// TestAttachFarm pins AttachFarm's contract: it refuses a config
// without SMMU bypass and names it, member i's driver drives member i
// through Cfg.BARRangeOf(i), and each driver allocates from its own
// arena, disjoint from the others, MiB-aligned and inside the host and
// device windows.
func TestAttachFarm(t *testing.T) {
	cfg := PCIe8GB()
	cfg.Name = "farm3"
	cfg.Accelerators = 3
	// Window sizes that do not split evenly, so the arenas must round
	// down to the MiB.
	cfg.HostMemBytes = 100<<20 + 12345
	cfg.DevMemBytes = 77 << 20

	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "farm3") {
				t.Fatalf("AttachFarm without SMMU bypass: recovered %v, want a panic naming the config", r)
			}
		}()
		Build(cfg).AttachFarm()
	}()

	cfg.SMMU.Bypass = true
	sys := Build(cfg)
	drvs := sys.AttachFarm()
	if len(drvs) != 3 {
		t.Fatalf("drivers = %d, want 3", len(drvs))
	}
	// Arenas lie in member order, so each starting at or after its
	// predecessor's end makes them pairwise disjoint.
	var prevHost, prevDev mem.AddrRange
	for i, d := range drvs {
		host, dev := sys.Cfg.farmArena(i)
		for _, c := range [][3]mem.AddrRange{{host, sys.Cfg.HostRange(), prevHost}, {dev, sys.Cfg.DevRange(), prevDev}} {
			a, window, prev := c[0], c[1], c[2]
			if a.Size() == 0 || a.Start%(1<<20) != 0 || a.Size()%(1<<20) != 0 ||
				a.Start < window.Start || a.End > window.End || (i > 0 && a.Start < prev.End) {
				t.Fatalf("member %d arena %+v: want non-empty, MiB-aligned, inside %+v and after %+v", i, a, window, prev)
			}
		}
		prevHost, prevDev = host, dev
		// The driver allocates from its own arenas: the MSI page is its
		// first host page (member 0 skips the NULL page), and its first
		// device buffer opens the device arena.
		if msi := d.MSIAddr(); msi < host.Start || msi >= host.End {
			t.Fatalf("member %d MSI page %#x outside its host arena %+v", i, msi, host)
		}
		if got := d.AllocDev(1); got != dev.Start {
			t.Fatalf("member %d first device buffer at %#x, want %#x", i, got, dev.Start)
		}
	}

	// A job on member 1's driver lands on accelerator 1 alone: its
	// register writes reach BARRangeOf(1) and nothing else.
	done := false
	drvs[1].RunGEMM(driver.GEMMSpec{M: 32, N: 32, K: 32}, func(driver.Result) { done = true })
	sys.Run()
	if !done {
		t.Fatal("member 1's job did not complete")
	}
	for i := range drvs {
		want := 0.0
		if i == 1 {
			want = 1
		}
		if got := sys.Stats.Lookup(fmt.Sprintf("farm3.accel%d.jobs", i)).Value(); got != want {
			t.Fatalf("accel%d completed %v jobs, want %v", i, got, want)
		}
	}
}
