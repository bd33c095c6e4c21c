// Package core assembles complete AcceSys systems: the CPU cluster
// with its cache hierarchy, the memory bus, host DRAM behind the
// shared LLC, the PCIe tree (root complex, switch, endpoint), the
// SMMU, the IOCache, and the MatrixFlow accelerator with local buffer
// and device-side memory — the architecture of the paper's Fig. 1 —
// and attaches the kernel drivers that run work on them.
package core

import (
	"accesys/internal/accel"
	"accesys/internal/dma"
	"accesys/internal/dram"
	"accesys/internal/mem"
	"accesys/internal/pcie"
	"accesys/internal/sim"
	"accesys/internal/smmu"
)

// Fixed physical address map.
const (
	// HostMemBase anchors host DRAM.
	HostMemBase = uint64(0x0000_0000)
	// BARBase is the accelerator's CSR window on the PCIe fabric.
	BARBase = uint64(0x8000_0000)
	// BARSize is the CSR window size.
	BARSize = uint64(0x1_0000)
	// DevMemBase anchors device-side memory (accessible from the CPU
	// across PCIe — the NUMA window — and locally from the
	// accelerator).
	DevMemBase = uint64(0x1_0000_0000)
	// IOVABase is where the driver allocates device-virtual addresses.
	IOVABase = uint64(0x10_0000_0000)
)

// AccessMethod selects how accelerator traffic reaches data
// (Section III.C).
type AccessMethod int

// The three access methods of the paper.
const (
	// DC routes DMA through the coherent cache hierarchy (IOCache and
	// LLC).
	DC AccessMethod = iota
	// DM bypasses caches straight to the memory controller; software
	// manages coherence (driver flushes).
	DM
	// DevMem keeps operands in device-side memory, bypassing PCIe for
	// the accelerator's data path.
	DevMem
)

// String implements fmt.Stringer.
func (a AccessMethod) String() string {
	switch a {
	case DC:
		return "DC"
	case DM:
		return "DM"
	default:
		return "DevMem"
	}
}

// SimpleMemParams configures the fixed-latency host memory used for
// the Fig. 6 parametric sweeps instead of the banked DRAM model.
type SimpleMemParams struct {
	Latency       sim.Tick
	BandwidthGBps float64
}

// Config describes a whole system. Zero values take the paper's
// Table II defaults.
type Config struct {
	Name string

	// CPU cluster.
	CPUClockMHz float64 // default 1000 (1 GHz ARM)
	CPUMLP      int     // default 8
	L1DBytes    int     // default 64 KiB
	LLCBytes    int     // default 2 MiB
	IOCacheB    int     // default 32 KiB

	// Host memory: banked DRAM by default, or SimpleMem for sweeps.
	HostSpec     dram.Spec // default DDR3_1600
	HostMemBytes uint64    // default 512 MiB simulated window
	HostSimple   *SimpleMemParams

	// Device-side memory.
	DevSpec     dram.Spec // default HBM2_2000
	DevMemBytes uint64    // default 256 MiB

	// Interconnects.
	PCIe       pcie.Config // default: Table II 4x4Gbps gen2
	BusLatency sim.Tick    // default 2 ns
	DevBusLat  sim.Tick    // default 2 ns

	// SMMU.
	SMMU smmu.Config

	// Accelerator.
	Accel accel.Config // BAR is filled in by Build

	// Access method for accelerator data.
	Access AccessMethod

	// Accelerators sizes the cluster: each accelerator gets its own
	// PCIe endpoint, BAR, and DMA engines; they share the switch, the
	// device bus, and device memory (default 1).
	Accelerators int

	// Cluster, when non-empty, makes the cluster heterogeneous: slots
	// expand in order into consecutive endpoints, each member built
	// from the kind's preset applied over the base Accel config. The
	// composition overrides Accelerators (which setDefaults rewrites
	// to the slot-count sum so downstream consumers agree on size).
	Cluster []ClusterSlot

	// Functional carries real data end to end (tests/examples); sweeps
	// run timing-only.
	Functional bool
}

func (c *Config) setDefaults() {
	if c.Name == "" {
		c.Name = "system"
	}
	if c.CPUClockMHz == 0 {
		c.CPUClockMHz = 1000
	}
	if c.CPUMLP == 0 {
		c.CPUMLP = 8
	}
	if c.L1DBytes == 0 {
		c.L1DBytes = 64 << 10
	}
	if c.LLCBytes == 0 {
		c.LLCBytes = 2 << 20
	}
	if c.IOCacheB == 0 {
		c.IOCacheB = 32 << 10
	}
	if c.HostSpec.Name == "" {
		c.HostSpec = dram.DDR3_1600
	}
	if c.HostMemBytes == 0 {
		c.HostMemBytes = 512 << 20
	}
	if c.DevSpec.Name == "" {
		c.DevSpec = dram.HBM2_2000
	}
	if c.DevMemBytes == 0 {
		c.DevMemBytes = 256 << 20
	}
	// Table II link: x4 at 4 Gbps per lane. Each half defaults on its
	// own, so a lanes or lane_gbps axis over a bare config keeps its
	// value and takes the other half from the table.
	if c.PCIe.Link.Lanes == 0 {
		c.PCIe.Link.Lanes = 4
	}
	if c.PCIe.Link.LaneGbps == 0 {
		c.PCIe.Link.LaneGbps = 4
	}
	if c.BusLatency == 0 {
		c.BusLatency = 2 * sim.Nanosecond
	}
	if c.DevBusLat == 0 {
		c.DevBusLat = 2 * sim.Nanosecond
	}
	if len(c.Cluster) > 0 {
		c.Accelerators = c.NumAccels()
	}
	if c.Accelerators == 0 {
		c.Accelerators = 1
	}
	if c.Accel.HostDMA.BurstBytes == 0 {
		c.Accel.HostDMA.BurstBytes = 256
	}
	c.Accel.Functional = c.Functional
	if c.Access == DM {
		c.Accel.HostDMA.Uncacheable = true
	}
}

// Resolved returns the configuration with every zero field replaced
// by its Table II default — the values Build actually assembles. The
// analytic backend derives its model parameters from this so it can
// never drift from the timing simulation's defaulting.
func (c Config) Resolved() Config {
	c.setDefaults()
	c.Accel = c.Accel.Resolved()
	c.PCIe = c.PCIe.Resolved()
	return c
}

// HostRange returns the host DRAM window.
func (c Config) HostRange() mem.AddrRange {
	return mem.Range(HostMemBase, c.HostMemBytes)
}

// DevRange returns the device memory window.
func (c Config) DevRange() mem.AddrRange {
	return mem.Range(DevMemBase, c.DevMemBytes)
}

// BARRangeOf returns cluster member i's CSR window.
func (c Config) BARRangeOf(i int) mem.AddrRange {
	return mem.Range(BARBase+uint64(i)*BARSize, BARSize)
}

// Named preset configurations of Section V.C. Packet sizes and memory
// technologies follow the paper: 256 B with DDR4 for PCIe-2GB/8GB,
// 256 B with HBM2 for PCIe-64GB, and 64 B bursts with HBM2 DevMem.
func PCIe2GB() Config {
	return Config{
		Name:     "PCIe-2GB",
		HostSpec: dram.DDR4_2400,
		PCIe:     pcie.Config{Link: pcie.LinkForGBps(2, 4)},
		Accel:    accel.Config{HostDMA: dma.Config{BurstBytes: 256}},
	}
}

// PCIe8GB is the moderate-bandwidth host-memory configuration.
func PCIe8GB() Config {
	return Config{
		Name:     "PCIe-8GB",
		HostSpec: dram.DDR4_2400,
		PCIe:     pcie.Config{Link: pcie.LinkForGBps(8, 8)},
		Accel:    accel.Config{HostDMA: dma.Config{BurstBytes: 256}},
	}
}

// PCIe64GB is the high-bandwidth host-memory configuration.
func PCIe64GB() Config {
	return Config{
		Name:     "PCIe-64GB",
		HostSpec: dram.HBM2_2000,
		PCIe:     pcie.Config{Link: pcie.LinkForGBps(64, 16)},
		Accel:    accel.Config{HostDMA: dma.Config{BurstBytes: 256}},
	}
}

// DevMemCfg is the device-side-memory configuration (HBM2, 64 B
// bursts, accelerator data path bypassing PCIe).
func DevMemCfg() Config {
	return Config{
		Name:    "DevMem",
		Access:  DevMem,
		DevSpec: dram.HBM2_2000,
		PCIe:    pcie.Config{Link: pcie.LinkForGBps(8, 8)},
		Accel:   accel.Config{DevDMA: dma.Config{BurstBytes: 64}, HostDMA: dma.Config{BurstBytes: 256}},
	}
}
