// Package driver models the accelerator's kernel driver — the feature
// the paper lists as "Kernel Driver Support". It allocates host and
// device buffers, builds the SMMU page tables that back device-virtual
// addressing, stages packed operands, programs the accelerator's CSRs
// with timed MMIO writes across the memory bus and PCIe fabric, rings
// the doorbell, and delivers completion (MSI write plus interrupt
// latency) back to the caller.
package driver

import (
	"encoding/binary"
	"fmt"

	"accesys/internal/accel"
	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/smmu"
	"accesys/internal/stats"
)

// Deps are the system handles the driver operates on.
type Deps struct {
	EQ       *sim.EventQueue
	Packets  *mem.Packets      // the system's packet freelist; nil leases unpooled
	MMIO     *mem.ResponsePort // memory-bus port for the driver's MMIO
	FuncHost mem.Functional
	FuncDev  mem.Functional
	SMMU     *smmu.SMMU
	Accel    *accel.MatrixFlow

	BARBase   uint64
	HostRange mem.AddrRange
	DevRange  mem.AddrRange
	IOVABase  uint64

	// Flush writes back and invalidates the host cache hierarchy (DM
	// access method); may be nil.
	Flush func()
}

// Config tunes driver behaviour.
type Config struct {
	// IRQLatency models interrupt delivery and handler entry
	// (default 1 us).
	IRQLatency sim.Tick
	// DMMode makes the driver flush caches around each job.
	DMMode bool
	// DevMemMode places operands in device memory and runs the
	// accelerator's device path.
	DevMemMode bool
	// NoIOMMU programs physical addresses directly (SMMU bypassed).
	NoIOMMU bool
	// BurstBytes programs the accelerator's RegBurst when nonzero.
	BurstBytes int
}

// GEMMSpec describes one offloaded multiplication.
type GEMMSpec struct {
	M, N, K int
	// A, B hold row-major operands when running functionally; nil for
	// timing-only jobs.
	A, B []int32
}

// Result is handed to the completion callback.
type Result struct {
	Job accel.JobResult
	// C holds the row-major product for functional jobs.
	C []int32
	// PagesMapped counts the SMMU pages backing the job's buffers.
	PagesMapped int
	// Launched/Completed bracket the driver-visible job time
	// (doorbell MMIO to interrupt handler).
	Launched, Completed sim.Tick
}

// Driver is the host-side agent.
type Driver struct {
	name string
	eq   *sim.EventQueue
	deps Deps
	cfg  Config

	mmio *mem.RequestPort
	reqQ *mem.PacketQueue

	hostBrk uint64
	devBrk  uint64
	iovaBrk uint64
	msiAddr uint64 // host physical MSI page
	msiDev  uint64 // device-visible (IOVA) MSI address

	tb    *smmu.TableBuilder
	pages int

	jobActive bool
	launched  sim.Tick
	spec      GEMMSpec
	bufs      stagedBuffers
	onDone    func(Result)

	jobsStat  *stats.Counter
	pagesStat *stats.Counter
	mmioStat  *stats.Counter
}

type stagedBuffers struct {
	aDev, bDev, cDev uint64 // device-visible addresses programmed in CSRs
	cHost            uint64 // where to read C back functionally
	pages            int
}

// New builds and initializes a driver: it reserves the MSI page and
// the page-table arena and programs the SMMU root pointer.
func New(name string, eq *sim.EventQueue, reg *stats.Registry, deps Deps, cfg Config) *Driver {
	if cfg.IRQLatency == 0 {
		cfg.IRQLatency = sim.Microsecond
	}
	d := &Driver{
		name:    name,
		eq:      eq,
		deps:    deps,
		cfg:     cfg,
		hostBrk: deps.HostRange.Start,
		devBrk:  deps.DevRange.Start,
		iovaBrk: deps.IOVABase,
	}
	if d.hostBrk == 0 {
		// NULL guard page: address 0 is never handed out (and the
		// accelerator treats MSI address 0 as "disabled").
		d.hostBrk = smmu.PageBytes
	}
	d.reqQ = mem.NewPacketQueue(name+".reqq", eq, func(p *mem.Packet) bool {
		return d.port().SendTimingReq(p)
	})
	port := mem.NewRequestPort(name+".mmio", d)
	mem.Bind(port, deps.MMIO)
	d.mmio = port

	g := reg.Group(name)
	d.jobsStat = g.Counter("jobs", "GEMM jobs launched")
	d.pagesStat = g.Counter("pages_mapped", "SMMU pages mapped")
	d.mmioStat = g.Counter("mmio_writes", "MMIO register writes")

	// MSI landing page.
	d.msiAddr = d.AllocHost(smmu.PageBytes)
	// Page tables live in host memory; the walker reads them with
	// timed accesses.
	d.tb = smmu.NewTableBuilder(deps.FuncHost, func() uint64 {
		return d.AllocHost(smmu.PageBytes)
	})
	deps.SMMU.SetRootTable(d.tb.Root())
	// The accelerator's completion write crosses the SMMU like any
	// other upstream traffic: give the MSI page a device-visible
	// address (IOMMUs remap MSI doorbells the same way).
	if cfg.NoIOMMU {
		d.msiDev = d.msiAddr
	} else {
		d.msiDev = d.MapForDevice(d.msiAddr, smmu.PageBytes)
	}

	deps.Accel.OnDone = d.accelDone
	return d
}

func (d *Driver) port() *mem.RequestPort { return d.mmio }

// AllocHost carves a page-aligned host physical buffer.
func (d *Driver) AllocHost(size uint64) uint64 {
	addr := d.hostBrk
	d.hostBrk = mem.AlignUp(d.hostBrk+size, smmu.PageBytes)
	if d.hostBrk > d.deps.HostRange.End {
		panic(fmt.Sprintf("driver %s: host memory exhausted", d.name))
	}
	return addr
}

// AllocDev carves a page-aligned device-memory buffer.
func (d *Driver) AllocDev(size uint64) uint64 {
	addr := d.devBrk
	d.devBrk = mem.AlignUp(d.devBrk+size, smmu.PageBytes)
	if d.devBrk > d.deps.DevRange.End {
		panic(fmt.Sprintf("driver %s: device memory exhausted", d.name))
	}
	return addr
}

// MapForDevice maps a host physical buffer into the device's IOVA
// space and returns the IOVA.
func (d *Driver) MapForDevice(phys, size uint64) uint64 {
	iova := d.iovaBrk
	npages := int(mem.AlignUp(size, smmu.PageBytes) / smmu.PageBytes)
	d.tb.MapRange(iova, phys, uint64(npages)*smmu.PageBytes)
	d.iovaBrk += uint64(npages) * smmu.PageBytes
	d.pages += npages
	d.pagesStat.Add(uint64(npages))
	return iova
}

// PagesMapped reports the total SMMU pages mapped so far (Table IV's
// memory footprint).
func (d *Driver) PagesMapped() int { return d.pages }

// MSIAddr returns the host address the accelerator's completion write
// targets.
func (d *Driver) MSIAddr() uint64 { return d.msiAddr }

// writeReg issues one timed 64-bit MMIO write (posted through the RC).
func (d *Driver) writeReg(off uint64, v uint64) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	pkt := d.deps.Packets.NewWrite(d.deps.BARBase+off, buf)
	pkt.Issued = d.eq.Now()
	d.mmioStat.Inc()
	d.reqQ.Schedule(pkt, d.eq.Now())
}

// RunGEMM stages, maps, programs and launches one GEMM; onDone fires
// after the completion interrupt.
func (d *Driver) RunGEMM(spec GEMMSpec, onDone func(Result)) {
	if d.jobActive {
		panic(fmt.Sprintf("driver %s: RunGEMM while a job is active", d.name))
	}
	for _, dim := range [...]int{spec.M, spec.N, spec.K} {
		if err := accel.CheckDim(dim); err != nil {
			panic(fmt.Sprintf("driver %s: %v", d.name, err))
		}
	}
	d.jobActive = true
	d.spec = spec
	d.onDone = onDone
	d.launched = d.eq.Now()
	d.jobsStat.Inc()

	aBytes := uint64(accel.PackedASize(spec.M, spec.K))
	bBytes := uint64(accel.PackedBSize(spec.K, spec.N))
	cBytes := uint64(accel.PackedCSize(spec.M, spec.N))

	var b stagedBuffers
	pagesBefore := d.pages
	if d.cfg.DevMemMode {
		b.aDev = d.AllocDev(aBytes)
		b.bDev = d.AllocDev(bBytes)
		b.cDev = d.AllocDev(cBytes)
		b.cHost = b.cDev
		if spec.A != nil {
			d.deps.FuncDev.WriteFunctional(b.aDev, accel.PackA(spec.A, spec.M, spec.K))
			d.deps.FuncDev.WriteFunctional(b.bDev, accel.PackB(spec.B, spec.K, spec.N))
		}
	} else {
		aPhys := d.AllocHost(aBytes)
		bPhys := d.AllocHost(bBytes)
		cPhys := d.AllocHost(cBytes)
		if d.cfg.NoIOMMU {
			b.aDev, b.bDev, b.cDev = aPhys, bPhys, cPhys
		} else {
			b.aDev = d.MapForDevice(aPhys, aBytes)
			b.bDev = d.MapForDevice(bPhys, bBytes)
			b.cDev = d.MapForDevice(cPhys, cBytes)
		}
		b.cHost = cPhys
		if spec.A != nil {
			d.deps.FuncHost.WriteFunctional(aPhys, accel.PackA(spec.A, spec.M, spec.K))
			d.deps.FuncHost.WriteFunctional(bPhys, accel.PackB(spec.B, spec.K, spec.N))
		}
		if d.cfg.DMMode && d.deps.Flush != nil {
			d.deps.Flush()
		}
	}
	b.pages = d.pages - pagesBefore
	d.bufs = b

	mode := uint64(accel.ModeHost)
	if d.cfg.DevMemMode {
		mode = accel.ModeDevMem
	}
	d.writeReg(accel.RegAAddr, b.aDev)
	d.writeReg(accel.RegBAddr, b.bDev)
	d.writeReg(accel.RegCAddr, b.cDev)
	d.writeReg(accel.RegM, uint64(spec.M))
	d.writeReg(accel.RegN, uint64(spec.N))
	d.writeReg(accel.RegK, uint64(spec.K))
	if d.cfg.BurstBytes > 0 {
		d.writeReg(accel.RegBurst, uint64(d.cfg.BurstBytes))
	}
	d.writeReg(accel.RegMSIAddr, d.msiDev)
	d.writeReg(accel.RegMode, mode)
	d.writeReg(accel.RegCtrl, 1)
}

// accelDone is wired as the accelerator's completion hook: it fires
// when the MSI write has landed; the handler runs after IRQLatency.
func (d *Driver) accelDone(job accel.JobResult) {
	d.eq.ScheduleAfter(func() { d.irqHandler(job) }, d.cfg.IRQLatency)
}

func (d *Driver) irqHandler(job accel.JobResult) {
	spec, b, onDone := d.spec, d.bufs, d.onDone
	res := Result{
		Job:         job,
		PagesMapped: b.pages,
		Launched:    d.launched,
		Completed:   d.eq.Now(),
	}
	if spec.A != nil {
		cBuf := make([]byte, accel.PackedCSize(spec.M, spec.N))
		if d.cfg.DevMemMode {
			d.deps.FuncDev.ReadFunctional(b.cHost, cBuf)
		} else {
			d.deps.FuncHost.ReadFunctional(b.cHost, cBuf)
		}
		res.C = accel.UnpackC(cBuf, spec.M, spec.N)
	}
	if d.cfg.DMMode && d.deps.Flush != nil {
		d.deps.Flush()
	}
	d.jobActive = false
	d.onDone = nil
	if onDone != nil {
		onDone(res)
	}
}

// RecvTimingResp implements mem.Requestor: MMIO write acks and reads.
func (d *Driver) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	pkt.Release() // MMIO register-write ack; the round trip ends here
	return true
}

// RecvRetryReq implements mem.Requestor.
func (d *Driver) RecvRetryReq(port *mem.RequestPort) { d.reqQ.RetryReceived() }

var _ mem.Requestor = (*Driver)(nil)
