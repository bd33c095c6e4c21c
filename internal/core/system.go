package core

import (
	"errors"
	"fmt"

	"accesys/internal/accel"
	"accesys/internal/cache"
	"accesys/internal/cpu"
	"accesys/internal/dram"
	"accesys/internal/driver"
	"accesys/internal/interconnect"
	"accesys/internal/mem"
	"accesys/internal/pcie"
	"accesys/internal/sim"
	"accesys/internal/simplemem"
	"accesys/internal/smmu"
	"accesys/internal/stats"
)

// Cache hierarchy latencies Build wires in (shared with the analytic
// backend, which models the coherent path from the same values).
const (
	// L1HitLatency is the L1 data cache lookup time.
	L1HitLatency = 2 * sim.Nanosecond
	// LLCHitLatency is the shared last-level cache lookup time.
	LLCHitLatency = 10 * sim.Nanosecond
	// IOCacheHitLatency is the DMA-path cache lookup time.
	IOCacheHitLatency = 4 * sim.Nanosecond
)

// System is a fully wired AcceSys platform.
type System struct {
	Cfg   Config
	EQ    *sim.EventQueue
	Stats *stats.Registry
	// Packets is the system's packet freelist, owned like EQ by the one
	// goroutine that runs the system. Every component that creates
	// packets leases them from it.
	Packets *mem.Packets

	CPU     *cpu.CPU
	L1D     *cache.Cache
	LLC     *cache.Cache
	IOCache *cache.Cache

	Bus    *interconnect.Bus
	DevBus *interconnect.Bus

	HostDRAM   *dram.DRAM        // nil when HostSimple is used
	HostSimple *simplemem.Memory // nil when banked DRAM is used
	DevDRAM    *dram.DRAM

	Tree *pcie.Tree
	SMMU *smmu.SMMU
	// Accel is cluster member 0; Accels lists the whole cluster.
	Accel  *accel.MatrixFlow
	Accels []*accel.MatrixFlow
}

// Build wires a System from a Config.
func Build(cfg Config) *System {
	if err := ValidateCluster(cfg.Cluster); err != nil {
		panic(err)
	}
	cfg.setDefaults()
	reg := stats.NewRegistry()
	n := cfg.Name

	eq := sim.NewEventQueue()
	pkts := mem.NewPackets()
	s := &System{Cfg: cfg, EQ: eq, Stats: reg, Packets: pkts}

	// --- Host memory behind the LLC ---------------------------------
	var hostPort *mem.ResponsePort
	var hostFunc mem.Functional
	if cfg.HostSimple != nil {
		s.HostSimple = simplemem.New(n+".hostmem", eq, reg, simplemem.Config{
			Range:         cfg.HostRange(),
			Latency:       cfg.HostSimple.Latency,
			BandwidthGBps: cfg.HostSimple.BandwidthGBps,
		})
		hostPort = s.HostSimple.Port()
		hostFunc = s.HostSimple
	} else {
		s.HostDRAM = dram.New(n+".hostmem", eq, reg, dram.Config{
			Spec:  cfg.HostSpec,
			Range: cfg.HostRange(),
		})
		hostPort = s.HostDRAM.Port()
		hostFunc = s.HostDRAM
	}

	s.LLC = cache.New(n+".llc", eq, pkts, reg, cache.Config{
		SizeBytes:     cfg.LLCBytes,
		Assoc:         16,
		HitLatency:    LLCHitLatency,
		MSHRs:         64,
		MemQueueDepth: 64,
	})
	mem.Bind(s.LLC.MemPort(), hostPort)
	s.LLC.SetDownstreamFunctional(hostFunc)

	// --- Memory bus --------------------------------------------------
	s.Bus = interconnect.New(n+".membus", eq, reg, interconnect.Config{
		Latency:    cfg.BusLatency,
		QueueDepth: 64,
	})
	mem.Bind(s.Bus.AddResponderPort("llc", cfg.HostRange()), s.LLC.CPUPort())

	// --- CPU cluster -------------------------------------------------
	s.CPU = cpu.New(n+".cpu", eq, pkts, reg, cpu.Config{ClockMHz: cfg.CPUClockMHz, MLP: cfg.CPUMLP})
	s.L1D = cache.New(n+".l1d", eq, pkts, reg, cache.Config{
		SizeBytes:  cfg.L1DBytes,
		Assoc:      4,
		HitLatency: L1HitLatency,
		MSHRs:      16,
	})
	mem.Bind(s.CPU.Port(), s.L1D.CPUPort())
	mem.Bind(s.L1D.MemPort(), s.Bus.AddRequestorPort("l1d"))
	s.L1D.SetDownstreamFunctional(s.LLC)

	// --- PCIe fabric --------------------------------------------------
	// Each cluster member claims its BAR; endpoint 0 also claims the
	// device-memory window (members share DevMem through the device bus).
	var epRanges [][]mem.AddrRange
	for i := 0; i < cfg.Accelerators; i++ {
		ranges := []mem.AddrRange{cfg.BARRangeOf(i)}
		if i == 0 {
			ranges = append(ranges, cfg.DevRange())
		}
		epRanges = append(epRanges, ranges)
	}
	s.Tree = pcie.NewTree(n+".pcie", eq, reg, cfg.PCIe, epRanges...)

	// Host-initiated traffic to the device windows goes through the RC.
	rcPort := s.Bus.AddResponderPort("rc", cfg.BARRangeOf(0))
	for i := 1; i < cfg.Accelerators; i++ {
		s.Bus.AddRange(rcPort, cfg.BARRangeOf(i))
	}
	s.Bus.AddRange(rcPort, cfg.DevRange())
	mem.Bind(rcPort, s.Tree.RC.HostPort())

	// --- SMMU + IOCache on the upstream (DMA) path --------------------
	s.SMMU = smmu.New(n+".smmu", eq, pkts, reg, cfg.SMMU)
	mem.Bind(s.Tree.RC.UpstreamPort(), s.SMMU.DevPort())

	s.IOCache = cache.New(n+".iocache", eq, pkts, reg, cache.Config{
		SizeBytes:     cfg.IOCacheB,
		Assoc:         4,
		HitLatency:    IOCacheHitLatency,
		MSHRs:         128,
		MemQueueDepth: 128,
	})
	mem.Bind(s.SMMU.MemPort(), s.IOCache.CPUPort())
	mem.Bind(s.IOCache.MemPort(), s.Bus.AddRequestorPort("iocache"))
	s.IOCache.SetDownstreamFunctional(s.LLC)

	// Coherence: the LLC snoops every upper cache.
	s.LLC.RegisterSnooper(s.L1D)
	s.LLC.RegisterSnooper(s.IOCache)

	// --- Device side ---------------------------------------------------
	s.DevDRAM = dram.New(n+".devmem", eq, reg, dram.Config{
		Spec:  cfg.DevSpec,
		Range: cfg.DevRange(),
	})

	s.DevBus = interconnect.New(n+".devbus", eq, reg, interconnect.Config{
		Latency:    cfg.DevBusLat,
		QueueDepth: 64,
	})
	mem.Bind(s.DevBus.AddResponderPort("devmem", cfg.DevRange()), s.DevDRAM.Port())

	for i := 0; i < cfg.Accelerators; i++ {
		acfg := cfg.MemberAccel(i)
		acfg.BAR = cfg.BARRangeOf(i)
		a := accel.New(fmt.Sprintf("%s.accel%d", n, i), eq, pkts, reg, acfg)
		s.Accels = append(s.Accels, a)

		mem.Bind(s.Tree.EP(i).BusPort(), s.DevBus.AddRequestorPort(fmt.Sprintf("ep%d", i)))
		mem.Bind(a.DevDMAPort(), s.DevBus.AddRequestorPort(fmt.Sprintf("devdma%d", i)))
		mem.Bind(s.DevBus.AddResponderPort(fmt.Sprintf("csr%d", i), cfg.BARRangeOf(i)), a.CSRPort())
		mem.Bind(a.HostDMAPort(), s.Tree.EP(i).DevPort())
	}
	s.Accel = s.Accels[0]
	return s
}

// hostView is the coherent functional view of host memory: the LLC
// chain provides the base contents and every upper cache overlays its
// lines.
type hostView struct{ s *System }

// ReadFunctional implements mem.Functional.
func (h hostView) ReadFunctional(addr uint64, buf []byte) {
	h.s.LLC.ReadFunctional(addr, buf)
	h.s.L1D.OverlayFunctional(addr, buf)
	h.s.IOCache.OverlayFunctional(addr, buf)
}

// WriteFunctional implements mem.Functional.
func (h hostView) WriteFunctional(addr uint64, data []byte) {
	h.s.L1D.UpdateFunctional(addr, data)
	h.s.IOCache.UpdateFunctional(addr, data)
	h.s.LLC.WriteFunctional(addr, data)
}

// flushCaches writes back and invalidates the whole cache hierarchy —
// the driver-managed coherence step of the DM access method.
func (s *System) flushCaches() {
	s.L1D.FlushAll()
	s.IOCache.FlushAll()
	s.LLC.FlushAll()
}

// AttachDriver wires the system's kernel driver, <config>.driver, to
// cluster member 0 over the whole host and device memory windows.
func (s *System) AttachDriver() *driver.Driver {
	return s.attach("driver", 0, s.Cfg.HostRange(), s.Cfg.DevRange())
}

// arenaAlign keeps farm arenas MiB-aligned so DMA bursts never
// straddle a partition boundary.
const arenaAlign = 1 << 20

// AttachFarm wires one kernel driver, <config>.drv<i>, per cluster
// member: each owns its member's BAR and member i's arena of the host
// and device windows (farmArena), so concurrent schedules never share
// buffers. The config must have SMMU bypass set: the members share one
// SMMU, and concurrent root tables would clobber each other.
func (s *System) AttachFarm() []*driver.Driver {
	if !s.Cfg.SMMU.Bypass {
		panic(fmt.Sprintf("core: farm under %s needs SMMU bypass (one translation stream per SMMU)", s.Cfg.Name))
	}
	drvs := make([]*driver.Driver, s.Cfg.Accelerators)
	for i := range drvs {
		host, dev := s.Cfg.farmArena(i)
		drvs[i] = s.attach(fmt.Sprintf("drv%d", i), i, host, dev)
	}
	return drvs
}

// farmArena returns member i's slice of the host and device windows:
// each window split into Accelerators disjoint, MiB-aligned arenas.
func (c Config) farmArena(i int) (host, dev mem.AddrRange) {
	k := uint64(c.Accelerators)
	hostSlice := (c.HostMemBytes / k) &^ (arenaAlign - 1)
	devSlice := (c.DevMemBytes / k) &^ (arenaAlign - 1)
	return mem.Range(HostMemBase+uint64(i)*hostSlice, hostSlice),
		mem.Range(DevMemBase+uint64(i)*devSlice, devSlice)
}

// attach wires a kernel driver named <config>.<port>, on a memory-bus
// host port of the same name, to cluster member i's accelerator and
// BAR. It allocates its buffers from the host and dev windows.
func (s *System) attach(port string, i int, host, dev mem.AddrRange) *driver.Driver {
	return driver.New(s.Cfg.Name+"."+port, s.EQ, s.Stats, driver.Deps{
		EQ:        s.EQ,
		Packets:   s.Packets,
		MMIO:      s.Bus.AddRequestorPort(port),
		FuncHost:  hostView{s},
		FuncDev:   s.DevDRAM,
		SMMU:      s.SMMU,
		Accel:     s.Accels[i],
		BARBase:   s.Cfg.BARRangeOf(i).Start,
		HostRange: host,
		DevRange:  dev,
		IOVABase:  IOVABase,
		Flush:     s.flushCaches,
	}, driver.Config{
		DMMode:     s.Cfg.Access == DM,
		DevMemMode: s.Cfg.Access == DevMem,
		NoIOMMU:    s.Cfg.SMMU.Bypass,
	})
}

// Audit checks the state every run must leave once its event queue
// has drained: the CPU with no operator running, no line outstanding
// and its port unblocked, both memory buses with their egress queues
// empty and no refused port waiting, the PCIe fabric's links idle
// with their credit back, its bridge queues empty and its TLPs back
// in the pool, the SMMU with no walk under way and its queues empty,
// every cache without outstanding misses or queued packets, every
// DRAM controller with its channel queues empty and its request
// entries recycled, a fixed-latency host memory with no response
// queued and no retry owed, and every accelerator's DMA engines idle
// with their burst records returned. It returns nil, or an error
// naming each violation.
func (s *System) Audit() error {
	errs := []error{s.CPU.Audit(), s.Bus.Audit(), s.DevBus.Audit(), s.Tree.Audit(), s.SMMU.Audit(), s.L1D.Audit(), s.LLC.Audit(), s.IOCache.Audit(), s.DevDRAM.Audit()}
	if s.HostDRAM != nil {
		errs = append(errs, s.HostDRAM.Audit())
	}
	if s.HostSimple != nil {
		errs = append(errs, s.HostSimple.Audit())
	}
	for _, a := range s.Accels {
		errs = append(errs, a.AuditDMA())
	}
	return errors.Join(errs...)
}

// Run drains the event queue.
func (s *System) Run() { s.EQ.Run() }

// ExecutedEvents counts the events the queue has dispatched.
func (s *System) ExecutedEvents() uint64 { return s.EQ.Executed }

// Now returns the current simulation time.
func (s *System) Now() sim.Tick { return s.EQ.Now() }
