// Package cpu implements the op-driven timing CPU that stands in for
// the paper's ARM core: it executes operator descriptors (the
// Non-GEMM portions of transformer workloads plus driver activity),
// overlapping a compute-cycle budget with real cacheline traffic
// issued through its cache port under a bounded memory-level
// parallelism window. The experiments never measure ISA effects — they
// measure where CPU memory traffic lands (host DRAM vs cross-PCIe
// device memory), which this model generates faithfully.
package cpu

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Op is one operator descriptor: stream ReadBytes from ReadAddr,
// stream WriteBytes to WriteAddr, and burn ComputeCycles, with compute
// and memory overlapping.
type Op struct {
	Name          string
	ReadAddr      uint64
	ReadBytes     int
	WriteAddr     uint64
	WriteBytes    int
	ComputeCycles uint64
}

// Config parameterizes a CPU.
type Config struct {
	// ClockMHz is the core clock (default 1000, Table II's 1 GHz ARM).
	ClockMHz float64
	// MLP bounds outstanding cacheline requests (default 8).
	MLP int
	// LineBytes is the access granularity (default 64).
	LineBytes int
}

// CPU is a single in-order core executing Op streams.
type CPU struct {
	name  string
	eq    *sim.EventQueue
	pkts  *mem.Packets
	cfg   Config
	clock sim.Clock

	port *mem.RequestPort

	ops    []Op
	opIdx  int
	onDone func()

	outstanding int
	rdCursor    uint64
	rdLeft      int
	wrCursor    uint64
	wrLeft      int
	computeLeft bool
	memLeft     bool
	opStart     sim.Tick
	portBlocked bool

	opsDone *stats.Counter
	busyNs  *stats.Scalar
	memB    *stats.Counter
	group   *stats.Group
}

// New builds a CPU that leases its requests from pkts; bind Port to
// the L1 data cache.
func New(name string, eq *sim.EventQueue, pkts *mem.Packets, reg *stats.Registry, cfg Config) *CPU {
	if cfg.ClockMHz == 0 {
		cfg.ClockMHz = 1000
	}
	if cfg.MLP == 0 {
		cfg.MLP = 8
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 64
	}
	c := &CPU{name: name, eq: eq, pkts: pkts, cfg: cfg, clock: sim.NewClock(cfg.ClockMHz)}
	c.port = mem.NewRequestPort(name+".dport", c)
	c.group = reg.Group(name)
	c.opsDone = c.group.Counter("ops", "operators executed")
	c.busyNs = c.group.Scalar("busy_ns", "total operator time")
	c.memB = c.group.Counter("mem_bytes", "bytes streamed")
	return c
}

// Port returns the CPU's cache port.
func (c *CPU) Port() *mem.RequestPort { return c.port }

// Run executes ops in order and calls onDone at completion. The CPU
// must be idle.
func (c *CPU) Run(ops []Op, onDone func()) {
	if c.ops != nil {
		panic(fmt.Sprintf("cpu %s: Run while busy", c.name))
	}
	if len(ops) == 0 {
		c.eq.ScheduleAfter(onDone, 0)
		return
	}
	c.ops = ops
	c.opIdx = 0
	c.onDone = onDone
	c.startOp()
}

func (c *CPU) startOp() {
	op := &c.ops[c.opIdx]
	c.opStart = c.eq.Now()
	c.rdCursor = op.ReadAddr
	c.rdLeft = op.ReadBytes
	c.wrCursor = op.WriteAddr
	c.wrLeft = op.WriteBytes
	c.memLeft = op.ReadBytes > 0 || op.WriteBytes > 0
	c.computeLeft = true

	cycles := op.ComputeCycles
	if cycles == 0 {
		cycles = 1
	}
	c.eq.ScheduleAfter(func() {
		c.computeLeft = false
		c.maybeOpDone()
	}, c.clock.Cycles(cycles))

	c.issue()
}

// issue keeps MLP lines in flight, reads before writes. Cursors only
// advance after the cache accepts, so a refusal retries the same line.
func (c *CPU) issue() {
	for c.outstanding < c.cfg.MLP && (c.rdLeft > 0 || c.wrLeft > 0) {
		lb := c.cfg.LineBytes
		var pkt *mem.Packet
		isRead := c.rdLeft > 0
		var n int
		if isRead {
			n = lb
			if c.rdLeft < n {
				n = c.rdLeft
			}
			pkt = c.pkts.NewRead(c.rdCursor, n)
		} else {
			n = lb
			if c.wrLeft < n {
				n = c.wrLeft
			}
			pkt = c.pkts.NewWriteSize(c.wrCursor, n)
		}
		pkt.Issued = c.eq.Now()
		if !c.port.SendTimingReq(pkt) {
			// The cursors did not advance: the retry rebuilds this
			// line, so the refused packet's lease ends here.
			pkt.Release()
			c.portBlocked = true
			return
		}
		if isRead {
			c.rdCursor += uint64(n)
			c.rdLeft -= n
		} else {
			c.wrCursor += uint64(n)
			c.wrLeft -= n
		}
		c.memB.Add(uint64(n))
		c.outstanding++
	}
}

// RecvTimingResp implements mem.Requestor.
func (c *CPU) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	pkt.Release() // the CPU originated this access; its round trip ends here
	c.outstanding--
	if c.rdLeft > 0 || c.wrLeft > 0 {
		c.issue()
	}
	if c.outstanding == 0 && c.rdLeft == 0 && c.wrLeft == 0 {
		c.memLeft = false
		c.maybeOpDone()
	}
	return true
}

// Audit checks the state a drained run must leave: no operator in
// progress, no line outstanding or left to issue, and the cache port
// not blocked. It returns nil, or an error naming each violation.
func (c *CPU) Audit() error {
	var errs []error
	if c.ops != nil {
		errs = append(errs, fmt.Errorf("%s: operator %d of %d in progress", c.name, c.opIdx+1, len(c.ops)))
	}
	if c.outstanding != 0 || c.rdLeft != 0 || c.wrLeft != 0 {
		errs = append(errs, fmt.Errorf("%s: %d lines outstanding, %d read and %d write bytes left to issue", c.name, c.outstanding, c.rdLeft, c.wrLeft))
	}
	if c.portBlocked {
		errs = append(errs, fmt.Errorf("%s: port blocked", c.name))
	}
	return errors.Join(errs...)
}

// RecvRetryReq implements mem.Requestor.
func (c *CPU) RecvRetryReq(port *mem.RequestPort) {
	if !c.portBlocked {
		return
	}
	c.portBlocked = false
	c.issue()
}

func (c *CPU) maybeOpDone() {
	if c.computeLeft || c.memLeft || c.ops == nil {
		return
	}
	op := &c.ops[c.opIdx]
	dur := c.eq.Now() - c.opStart
	c.opsDone.Inc()
	c.busyNs.Add(dur.Nanoseconds())
	c.opTime(op.Name).Add(dur.Nanoseconds())

	c.opIdx++
	if c.opIdx < len(c.ops) {
		c.startOp()
		return
	}
	done := c.onDone
	c.ops = nil
	c.onDone = nil
	if done != nil {
		done()
	}
}

// opTime returns (creating on first use) the per-operator time scalar.
func (c *CPU) opTime(name string) *stats.Scalar {
	key := "op_" + name + "_ns"
	if s := c.group.Lookup(key); s != nil {
		return s.(*stats.Scalar)
	}
	return c.group.Scalar(key, "time in operator "+name)
}

var _ mem.Requestor = (*CPU)(nil)
