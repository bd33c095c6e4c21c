// Package simplemem implements a fixed-latency, bandwidth-limited
// memory — the analogue of gem5's SimpleMemory. The paper uses this
// model ("gem5's default DRAM model") for the parametric bandwidth and
// latency sweeps of Fig. 6; it also serves as a lightweight backing
// target in unit tests.
package simplemem

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Config parameterizes a Memory.
type Config struct {
	// Range is the address window the memory serves.
	Range mem.AddrRange
	// Latency is the fixed access latency applied to every request.
	Latency sim.Tick
	// BandwidthGBps limits throughput; 0 means unlimited.
	BandwidthGBps float64
}

// Memory is a single-ported memory with fixed latency and a
// serialization-based bandwidth limit: requests occupy the device for
// size/bandwidth and are refused while it is busy, matching gem5's
// SimpleMemory admission model.
type Memory struct {
	name  string
	eq    *sim.EventQueue
	cfg   Config
	port  *mem.ResponsePort
	respQ *mem.PacketQueue
	store *mem.Storage

	busyUntil  sim.Tick
	needRetry  bool
	retryEvent *sim.Event

	reads      *stats.Counter
	writes     *stats.Counter
	bytesRead  *stats.Counter
	bytesWrite *stats.Counter
	latency    *stats.Distribution
}

// New builds a Memory and registers its statistics under name.
func New(name string, eq *sim.EventQueue, reg *stats.Registry, cfg Config) *Memory {
	m := &Memory{name: name, eq: eq, cfg: cfg}
	m.port = mem.NewResponsePort(name+".port", m)
	m.respQ = mem.NewPacketQueue(name+".resp", eq, func(p *mem.Packet) bool {
		return m.port.SendTimingResp(p)
	})
	m.store = mem.NewStorage(cfg.Range.Size())
	m.retryEvent = eq.NewEvent(name+".retry", m.sendRetry)

	g := reg.Group(name)
	m.reads = g.Counter("reads", "read requests served")
	m.writes = g.Counter("writes", "write requests served")
	m.bytesRead = g.Counter("bytes_read", "bytes read")
	m.bytesWrite = g.Counter("bytes_written", "bytes written")
	m.latency = g.Distribution("queue_latency_ns", "admission-to-response latency")
	return m
}

// Port returns the memory's response port for binding to a bus.
func (m *Memory) Port() *mem.ResponsePort { return m.port }

// Ranges returns the address ranges served, for bus routing.
func (m *Memory) Ranges() []mem.AddrRange { return []mem.AddrRange{m.cfg.Range} }

// serialization returns the bandwidth occupancy of a transfer.
func (m *Memory) serialization(bytes int) sim.Tick {
	if m.cfg.BandwidthGBps <= 0 {
		return 0
	}
	// GB/s == bytes/ns; ticks are ps.
	return sim.Tick(float64(bytes)*1000/m.cfg.BandwidthGBps + 0.5)
}

// RecvTimingReq implements mem.Responder.
func (m *Memory) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	now := m.eq.Now()
	if m.busyUntil > now {
		m.needRetry = true
		if !m.retryEvent.Pending() {
			m.eq.ScheduleEvent(m.retryEvent, m.busyUntil, sim.PriorityDefault)
		}
		return false
	}

	ser := m.serialization(pkt.Size)
	m.busyUntil = now + ser

	offset := m.cfg.Range.Offset(pkt.Addr)
	m.store.Access(pkt, offset)
	if pkt.Cmd.IsRead() {
		m.reads.Inc()
		m.bytesRead.Add(uint64(pkt.Size))
	} else {
		m.writes.Inc()
		m.bytesWrite.Add(uint64(pkt.Size))
	}

	done := now + ser + m.cfg.Latency
	m.latency.Sample(float64(done-now) / float64(sim.Nanosecond))
	pkt.MakeResponse()
	m.respQ.Schedule(pkt, done)
	return true
}

func (m *Memory) sendRetry() {
	if m.needRetry {
		m.needRetry = false
		m.port.SendRetryReq()
	}
}

// Audit checks the state a drained run must leave: no response queued
// or blocked, no retry owed to a refused requestor, and the retry
// event not pending. It returns nil, or an error naming each
// violation.
func (m *Memory) Audit() error {
	var errs []error
	if m.needRetry || m.retryEvent.Pending() {
		errs = append(errs, fmt.Errorf("%s: retry owed %v, retry event pending %v", m.name, m.needRetry, m.retryEvent.Pending()))
	}
	errs = append(errs, m.respQ.Audit(m.name+".respq"))
	return errors.Join(errs...)
}

// RecvRetryResp implements mem.Responder.
func (m *Memory) RecvRetryResp(port *mem.ResponsePort) { m.respQ.RetryReceived() }

// ReadFunctional implements mem.Functional.
func (m *Memory) ReadFunctional(addr uint64, buf []byte) {
	m.store.Read(m.cfg.Range.Offset(addr), buf)
}

// WriteFunctional implements mem.Functional.
func (m *Memory) WriteFunctional(addr uint64, data []byte) {
	m.store.Write(m.cfg.Range.Offset(addr), data)
}

var _ mem.Responder = (*Memory)(nil)
var _ mem.Functional = (*Memory)(nil)
