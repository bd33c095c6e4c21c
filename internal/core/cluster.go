package core

import (
	"fmt"

	"accesys/internal/accel"
)

// ClusterSlot is one entry of a heterogeneous cluster composition: N
// accelerators of the named kind. Slots expand in declaration order
// into consecutive endpoint indexes, so `[{gemm,2},{vit,1}]` builds
// endpoints 0,1 as "gemm" members and endpoint 2 as a "vit" member.
type ClusterSlot struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

// Accelerator kind presets. Each derives a member's accel.Config from
// the scenario's base Accel config, so axis-driven knobs (DMA bursts,
// compute override, functional mode) still apply to every member and
// only the kind-specific microarchitecture differs.
//
//	gemm  - the paper's MatrixFlow as configured (the base itself)
//	vit   - a faster-clocked, smaller-buffer variant tuned for the
//	        attention/MLP mix (1.25 GHz, 512 KiB local buffer)
//	lite  - an area-optimized edge variant (500 MHz, 256 KiB)
//	hpc   - a datacenter variant (2 GHz, 4 MiB)
//	cycle - the base microarchitecture driven by the register-accurate
//	        CycleModel backend instead of the TileModel phase algebra
var accelKinds = map[string]func(accel.Config) accel.Config{
	"gemm": func(c accel.Config) accel.Config { return c },
	"vit": func(c accel.Config) accel.Config {
		c.ClockMHz = 1250
		c.LocalBufBytes = 512 << 10
		return c
	},
	"lite": func(c accel.Config) accel.Config {
		c.ClockMHz = 500
		c.LocalBufBytes = 256 << 10
		return c
	},
	"hpc": func(c accel.Config) accel.Config {
		c.ClockMHz = 2000
		c.LocalBufBytes = 4 << 20
		return c
	},
	"cycle": func(c accel.Config) accel.Config {
		c.Backend = accel.CycleModel{}
		return c
	},
}

// AccelKindNames lists the valid ClusterSlot kinds.
func AccelKindNames() []string {
	return []string{"cycle", "gemm", "hpc", "lite", "vit"}
}

// ValidAccelKind reports whether kind names a cluster member preset.
func ValidAccelKind(kind string) bool {
	_, ok := accelKinds[kind]
	return ok
}

// ValidateCluster checks a composition: every slot a known kind with a
// positive count. An empty composition is valid (homogeneous cluster
// sized by Accelerators).
func ValidateCluster(slots []ClusterSlot) error {
	for i, s := range slots {
		if !ValidAccelKind(s.Kind) {
			return fmt.Errorf("core: cluster slot %d: unknown accelerator kind %q (want one of %v)", i, s.Kind, AccelKindNames())
		}
		if s.N < 1 {
			return fmt.Errorf("core: cluster slot %d (%s): n %d (want >= 1)", i, s.Kind, s.N)
		}
	}
	return nil
}

// NumAccels returns the resolved cluster size: the slot-count sum of a
// heterogeneous composition, or Accelerators for a homogeneous one.
func (c Config) NumAccels() int {
	if len(c.Cluster) > 0 {
		n := 0
		for _, s := range c.Cluster {
			n += s.N
		}
		return n
	}
	if c.Accelerators > 0 {
		return c.Accelerators
	}
	return 1
}

// MemberKind returns the accelerator kind of cluster member i ("gemm"
// for every member of a homogeneous cluster).
func (c Config) MemberKind(i int) string {
	for _, s := range c.Cluster {
		if i < s.N {
			return s.Kind
		}
		i -= s.N
	}
	return "gemm"
}

// MemberAccel derives cluster member i's accelerator configuration
// from the base Accel config and the member's kind preset.
func (c Config) MemberAccel(i int) accel.Config {
	return accelKinds[c.MemberKind(i)](c.Accel)
}
