package accel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"accesys/internal/dma"
	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// CSR register offsets within the accelerator's BAR. Registers are
// 64-bit little-endian; the driver programs a job and rings RegCtrl.
const (
	RegCtrl    = 0x00 // write 1 to start
	RegStatus  = 0x08 // StatusIdle/Busy/Done
	RegAAddr   = 0x10 // packed A base (IOVA in host mode, phys in devmem mode)
	RegBAddr   = 0x18 // packed B base
	RegCAddr   = 0x20 // packed C base
	RegM       = 0x28
	RegN       = 0x30
	RegK       = 0x38
	RegBurst   = 0x40 // DMA request packet size in bytes (0 = keep)
	RegMSIAddr = 0x48 // host address for the completion (MSI) write; 0 disables
	RegMode    = 0x50 // ModeHost / ModeDevMem

	numRegs = 11
)

// Status register values.
const (
	StatusIdle = 0
	StatusBusy = 1
	StatusDone = 2
)

// Memory modes.
const (
	ModeHost   = 0 // operands stream over PCIe from host memory
	ModeDevMem = 1 // operands stream from device-side memory
)

// Config parameterizes a MatrixFlow instance.
type Config struct {
	// ClockMHz is the array/controller clock (default 1000 = 1 GHz).
	ClockMHz float64
	// LocalBufBytes sizes the local buffer holding the resident A
	// block, the streaming B panel, and the C staging tile
	// (default 1 MiB).
	LocalBufBytes int
	// BAR is the CSR decode window on the PCIe fabric.
	BAR mem.AddrRange
	// HostDMA configures the host-path engine (PCIe); DevDMA the
	// device-memory path engine.
	HostDMA dma.Config
	DevDMA  dma.Config
	// Backend models the systolic array (default TileModel{}).
	Backend Backend
	// Functional carries real data end to end and computes real
	// results; timing-only runs leave it false.
	Functional bool
	// CSRLatency is the register file access time (default 4 ns).
	CSRLatency sim.Tick
	// ComputeOverride, when nonzero, fixes the per-tile compute time
	// regardless of K — the knob behind the paper's roofline (Fig. 2).
	ComputeOverride sim.Tick
}

// Resolved returns the configuration with every zero field replaced
// by the default New would apply — the values an assembled MatrixFlow
// actually runs with. Analytic models derive blocking geometry and
// clocking from this.
func (c Config) Resolved() Config {
	if c.ClockMHz == 0 {
		c.ClockMHz = 1000
	}
	if c.LocalBufBytes == 0 {
		c.LocalBufBytes = 1 << 20
	}
	if c.Backend == nil {
		c.Backend = TileModel{}
	}
	if c.CSRLatency == 0 {
		c.CSRLatency = 4 * sim.Nanosecond
	}
	if c.DevDMA.BurstBytes == 0 {
		c.DevDMA.BurstBytes = 64
	}
	c.HostDMA = c.HostDMA.Resolved()
	c.DevDMA = c.DevDMA.Resolved()
	return c
}

// JobResult summarizes one completed GEMM.
type JobResult struct {
	Start, End  sim.Tick
	ComputeBusy sim.Tick
	Tiles       int
	BytesIn     uint64
	BytesOut    uint64
}

// Duration is the wall-clock simulation time of the job.
func (r JobResult) Duration() sim.Tick { return r.End - r.Start }

type job struct {
	aAddr, bAddr, cAddr uint64
	msiAddr             uint64
	m, n, k             int
	mode                int

	tilesM, tilesN int
	rbTiles        int // A-block height in tiles

	rb, rbCount int // current row block (start tile, tiles)
	q           int // current B panel
	tile        int // tile index within the block

	aBuf, bBuf, bNext []byte
	bLoading          []byte // the panel being loaded (one at a time)
	bNextReady        bool
	bWaiting          bool

	outstandingC int
	drained      bool

	start       sim.Tick
	computeBusy sim.Tick
	tiles       int
}

// MatrixFlow is the accelerator wrapper: CSRs, local buffer blocking,
// a tile scheduler with double-buffered B panels, and two DMA engines
// (host path and device-memory path).
type MatrixFlow struct {
	name string
	eq   *sim.EventQueue
	cfg  Config

	clock    sim.Clock
	csrPort  *mem.ResponsePort
	csrRespQ *mem.PacketQueue

	hostDMA *dma.Engine
	devDMA  *dma.Engine

	regs [numRegs]uint64
	job  *job

	// The job's event and DMA callbacks, bound once in New so that a
	// tile or transfer allocates no closure.
	aLoadedFn, bLoadedFn, bPrefetchedFn func()
	tileDoneFn, cWrittenFn, finishFn    func()

	// OnDone fires when a job completes (after the MSI write lands).
	OnDone func(JobResult)

	jobs      *stats.Counter
	tilesStat *stats.Counter
	computeNs *stats.Scalar
	gemmNs    *stats.Scalar
}

// New builds a MatrixFlow accelerator. Bind HostDMAPort to the PCIe
// endpoint, DevDMAPort to the device-memory fabric, and CSRPort to the
// device-internal bus serving the BAR range. Both DMA engines lease
// their bursts from pkts.
func New(name string, eq *sim.EventQueue, pkts *mem.Packets, reg *stats.Registry, cfg Config) *MatrixFlow {
	cfg = cfg.Resolved()
	if cfg.BAR.Size() == 0 {
		panic(fmt.Sprintf("accel %s: BAR range required", name))
	}
	// Ticks are unsigned: a negative duration converted to one wraps
	// past 2^63.
	if d := int64(cfg.ComputeOverride); d < 0 {
		panic(fmt.Sprintf("accel %s: ComputeOverride %d ps is negative", name, d))
	}

	m := &MatrixFlow{name: name, eq: eq, cfg: cfg, clock: sim.NewClock(cfg.ClockMHz)}
	m.aLoadedFn, m.bLoadedFn, m.bPrefetchedFn = m.aLoaded, m.bLoaded, m.bPrefetched
	m.tileDoneFn, m.cWrittenFn, m.finishFn = m.tileDone, m.cWritten, m.finish
	m.csrPort = mem.NewResponsePort(name+".csr", m)
	m.csrRespQ = mem.NewPacketQueue(name+".csrresp", eq, func(p *mem.Packet) bool {
		return m.csrPort.SendTimingResp(p)
	})
	m.hostDMA = dma.New(name+".hostdma", eq, pkts, reg, cfg.HostDMA)
	m.devDMA = dma.New(name+".devdma", eq, pkts, reg, cfg.DevDMA)

	g := reg.Group(name)
	m.jobs = g.Counter("jobs", "GEMM jobs completed")
	m.tilesStat = g.Counter("tiles", "output tiles computed")
	m.computeNs = g.Scalar("compute_ns", "systolic array busy time")
	m.gemmNs = g.Scalar("gemm_ns", "total GEMM wall time")
	return m
}

// CSRPort returns the register-file port (bind to the device bus).
func (m *MatrixFlow) CSRPort() *mem.ResponsePort { return m.csrPort }

// HostDMAPort returns the host-path DMA request port (bind to the
// PCIe endpoint DevPort).
func (m *MatrixFlow) HostDMAPort() *mem.RequestPort { return m.hostDMA.Port() }

// DevDMAPort returns the device-memory-path DMA request port.
func (m *MatrixFlow) DevDMAPort() *mem.RequestPort { return m.devDMA.Port() }

// AuditDMA reports, from both DMA engines, the transfers, bursts and
// burst-state records a drained run must not hold (dma.Engine.Audit).
func (m *MatrixFlow) AuditDMA() error {
	return errors.Join(m.hostDMA.Audit(), m.devDMA.Audit())
}

// Status returns the current status register value.
func (m *MatrixFlow) Status() uint64 { return m.regs[RegStatus/8] }

// RecvTimingReq implements mem.Responder for the CSR block.
func (m *MatrixFlow) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	off := m.cfg.BAR.Offset(pkt.Addr)
	idx := int(off / 8)
	if idx < 0 || idx >= numRegs || off%8 != 0 || pkt.Size != 8 {
		panic(fmt.Sprintf("accel %s: bad CSR access %v", m.name, pkt))
	}
	switch {
	case pkt.Cmd.IsWrite():
		var v uint64
		if pkt.Data != nil {
			v = binary.LittleEndian.Uint64(pkt.Data)
		}
		m.writeReg(idx, v)
	case pkt.Cmd.IsRead():
		binary.LittleEndian.PutUint64(pkt.AllocData(), m.regs[idx])
	}
	pkt.MakeResponse()
	m.csrRespQ.Schedule(pkt, m.eq.Now()+m.cfg.CSRLatency)
	return true
}

func (m *MatrixFlow) writeReg(idx int, v uint64) {
	m.regs[idx] = v
	if idx == RegCtrl/8 && v == 1 {
		m.startJob()
	}
}

// RecvRetryResp implements mem.Responder.
func (m *MatrixFlow) RecvRetryResp(port *mem.ResponsePort) { m.csrRespQ.RetryReceived() }

func (m *MatrixFlow) engine(j *job) *dma.Engine {
	if j.mode == ModeDevMem {
		return m.devDMA
	}
	return m.hostDMA
}

func (m *MatrixFlow) startJob() {
	if m.job != nil {
		panic(fmt.Sprintf("accel %s: doorbell while busy", m.name))
	}
	j := &job{
		aAddr:   m.regs[RegAAddr/8],
		bAddr:   m.regs[RegBAddr/8],
		cAddr:   m.regs[RegCAddr/8],
		msiAddr: m.regs[RegMSIAddr/8],
		m:       int(m.regs[RegM/8]),
		n:       int(m.regs[RegN/8]),
		k:       int(m.regs[RegK/8]),
		mode:    int(m.regs[RegMode/8]),
		start:   m.eq.Now(),
	}
	checkDims(j.m, j.n, j.k)
	if burst := int(m.regs[RegBurst/8]); burst > 0 {
		m.engine(j).SetBurstBytes(burst)
	}

	j.tilesM = j.m / Dim
	j.tilesN = j.n / Dim
	panel := BPanelBytes(j.k)
	avail := m.cfg.LocalBufBytes - panel - TileCBytes
	if avail < APanelBytes(j.k) {
		panic(fmt.Sprintf("accel %s: local buffer %d B cannot hold one A panel + B panel for k=%d",
			m.name, m.cfg.LocalBufBytes, j.k))
	}
	j.rbTiles = avail / APanelBytes(j.k)
	if j.rbTiles > j.tilesM {
		j.rbTiles = j.tilesM
	}

	m.job = j
	m.regs[RegStatus/8] = StatusBusy
	m.loadABlock()
}

func (m *MatrixFlow) loadABlock() {
	j := m.job
	j.rbCount = j.rbTiles
	if j.rb+j.rbCount > j.tilesM {
		j.rbCount = j.tilesM - j.rb
	}
	size := j.rbCount * APanelBytes(j.k)
	if m.cfg.Functional {
		j.aBuf = make([]byte, size)
	}
	addr := j.aAddr + uint64(j.rb*APanelBytes(j.k))
	m.engine(j).Read(0, addr, size, j.aBuf, m.aLoadedFn)
}

// aLoaded starts the row block's first B panel once its A block landed.
func (m *MatrixFlow) aLoaded() {
	j := m.job
	j.q = 0
	j.bNextReady = false
	m.loadBPanel(j.q, false)
}

// loadBPanel fetches panel q; prefetch selects the bNext slot. Only one
// panel is in flight at a time: the next is prefetched once the
// current one has landed.
func (m *MatrixFlow) loadBPanel(q int, prefetch bool) {
	j := m.job
	panel := BPanelBytes(j.k)
	j.bLoading = nil
	if m.cfg.Functional {
		j.bLoading = make([]byte, panel)
	}
	addr := j.bAddr + uint64(q*panel)
	done := m.bLoadedFn
	if prefetch {
		done = m.bPrefetchedFn
	}
	m.engine(j).Read(1, addr, panel, j.bLoading, done)
}

// bLoaded starts the tiles of the panel just loaded.
func (m *MatrixFlow) bLoaded() {
	j := m.job
	j.bBuf = j.bLoading
	m.startPanelComputes()
}

// bPrefetched parks the prefetched panel, starting it if the tile loop
// is already waiting for it.
func (m *MatrixFlow) bPrefetched() {
	j := m.job
	j.bNext = j.bLoading
	j.bNextReady = true
	if j.bWaiting {
		j.bWaiting = false
		m.swapAndStart()
	}
}

// startPanelComputes kicks the tile loop for the current panel and
// prefetches the next panel concurrently.
func (m *MatrixFlow) startPanelComputes() {
	j := m.job
	if j.q+1 < j.tilesN {
		j.bNextReady = false
		m.loadBPanel(j.q+1, true)
	}
	j.tile = 0
	m.computeTile()
}

func (m *MatrixFlow) computeTile() {
	j := m.job
	dur := m.cfg.ComputeOverride
	if dur == 0 {
		dur = m.clock.Cycles(m.cfg.Backend.TileCycles(j.k))
	}
	j.computeBusy += dur
	m.eq.ScheduleAfter(m.tileDoneFn, dur)
}

func (m *MatrixFlow) tileDone() {
	j := m.job
	p := j.rb + j.tile

	var data []byte
	if m.cfg.Functional {
		aPanel := decodePanel(j.aBuf[j.tile*APanelBytes(j.k):(j.tile+1)*APanelBytes(j.k)], j.k)
		bPanel := decodePanel(j.bBuf, j.k)
		c := make([]int32, Dim*Dim)
		m.cfg.Backend.ComputeTile(aPanel, bPanel, j.k, c)
		data = encodeTile(c)
	}
	j.tiles++
	m.tilesStat.Inc()

	cOff := uint64((p*j.tilesN + j.q) * TileCBytes)
	j.outstandingC++
	m.engine(j).Write(2, j.cAddr+cOff, TileCBytes, data, m.cWrittenFn)

	j.tile++
	if j.tile < j.rbCount {
		m.computeTile()
		return
	}
	m.advancePanel()
}

// cWritten retires one C tile's write.
func (m *MatrixFlow) cWritten() {
	m.job.outstandingC--
	m.maybeFinish()
}

// swapAndStart promotes the prefetched B panel and starts its tiles.
func (m *MatrixFlow) swapAndStart() {
	j := m.job
	j.bBuf = j.bNext
	m.startPanelComputes()
}

// advancePanel moves to the next B panel or the next A block.
func (m *MatrixFlow) advancePanel() {
	j := m.job
	j.q++
	if j.q < j.tilesN {
		if !j.bNextReady {
			j.bWaiting = true // resume when the prefetch lands
			return
		}
		m.swapAndStart()
		return
	}
	// Row block finished.
	j.rb += j.rbCount
	if j.rb < j.tilesM {
		m.loadABlock()
		return
	}
	j.drained = true
	m.maybeFinish()
}

func (m *MatrixFlow) maybeFinish() {
	j := m.job
	if j == nil || !j.drained || j.outstandingC != 0 {
		return
	}
	j.drained = false // fire once
	if j.msiAddr != 0 {
		msi := make([]byte, 8)
		msi[0] = 1
		m.hostDMA.Write(3, j.msiAddr, 8, msi, m.finishFn)
		return
	}
	m.finish()
}

func (m *MatrixFlow) finish() {
	j := m.job
	now := m.eq.Now()
	m.regs[RegStatus/8] = StatusDone
	m.jobs.Inc()
	m.computeNs.Add(float64(j.computeBusy) / float64(sim.Nanosecond))
	m.gemmNs.Add(float64(now-j.start) / float64(sim.Nanosecond))

	blocks := (j.tilesM + j.rbTiles - 1) / j.rbTiles
	res := JobResult{
		Start:       j.start,
		End:         now,
		ComputeBusy: j.computeBusy,
		Tiles:       j.tiles,
		BytesIn: uint64(j.tilesM*APanelBytes(j.k)) +
			uint64(blocks*j.tilesN*BPanelBytes(j.k)),
		BytesOut: uint64(j.tilesM * j.tilesN * TileCBytes),
	}
	m.job = nil
	if m.OnDone != nil {
		m.OnDone(res)
	}
}

var _ mem.Responder = (*MatrixFlow)(nil)
