// Package interconnect implements the memory bus (MemBus) that joins
// the CPU cluster, memory controllers, and the PCIe root complex: a
// coherent-point crossbar with a fixed crossing latency, a shared
// bandwidth layer per direction, range-based routing, and per-egress
// queues with retry-protocol backpressure.
package interconnect

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Config parameterizes a Bus.
type Config struct {
	// Latency is the fixed crossing latency per packet.
	Latency sim.Tick
	// BandwidthGBps limits each direction's aggregate throughput;
	// 0 means unlimited.
	BandwidthGBps float64
	// QueueDepth caps each egress queue in packets (default 16).
	QueueDepth int
}

// Bus is a crossbar between N upstream (requestor-facing) ports and M
// downstream (responder-facing) ports. Requests route by address range;
// responses retrace the route stack the bus pushed.
type Bus struct {
	name string
	eq   *sim.EventQueue
	cfg  Config

	upPorts   []*mem.ResponsePort
	upIndex   map[*mem.ResponsePort]int
	downPorts []*mem.RequestPort
	downIndex map[*mem.RequestPort]int

	reqQueues  []*mem.PacketQueue // one per downstream port
	respQueues []*mem.PacketQueue // one per upstream port

	// reqWaiters[i] lists upstream ports refused because reqQueues[i]
	// was full; respWaiters[i] lists downstream ports refused because
	// respQueues[i] was full.
	reqWaiters  [][]*mem.ResponsePort
	respWaiters [][]*mem.RequestPort

	addrMap      mem.AddrMap
	reqLayerFree sim.Tick
	rspLayerFree sim.Tick

	pktCount *stats.Counter
	pktBytes *stats.Counter
	retries  *stats.Counter
}

// New creates an empty bus; add ports before wiring the system.
func New(name string, eq *sim.EventQueue, reg *stats.Registry, cfg Config) *Bus {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	b := &Bus{
		name:      name,
		eq:        eq,
		cfg:       cfg,
		upIndex:   make(map[*mem.ResponsePort]int),
		downIndex: make(map[*mem.RequestPort]int),
	}
	g := reg.Group(name)
	b.pktCount = g.Counter("packets", "packets crossed")
	b.pktBytes = g.Counter("bytes", "bytes crossed")
	b.retries = g.Counter("retries", "requests refused for backpressure")
	return b
}

// AddRequestorPort creates an upstream-facing port for one requestor
// (CPU cache, PCIe root complex, ...).
func (b *Bus) AddRequestorPort(name string) *mem.ResponsePort {
	p := mem.NewResponsePort(fmt.Sprintf("%s.up[%s]", b.name, name), b)
	i := len(b.upPorts)
	b.upPorts = append(b.upPorts, p)
	b.upIndex[p] = i

	q := mem.NewPacketQueue(fmt.Sprintf("%s.respq[%d]", b.name, i), b.eq, func(pkt *mem.Packet) bool {
		return p.SendTimingResp(pkt)
	})
	idx := i
	q.OnDrain = func() { b.wakeRespWaiters(idx) }
	b.respQueues = append(b.respQueues, q)
	b.respWaiters = append(b.respWaiters, nil)
	return p
}

// AddResponderPort creates a downstream-facing port routed to for the
// given address ranges.
func (b *Bus) AddResponderPort(name string, ranges ...mem.AddrRange) *mem.RequestPort {
	p := mem.NewRequestPort(fmt.Sprintf("%s.down[%s]", b.name, name), b)
	i := len(b.downPorts)
	b.downPorts = append(b.downPorts, p)
	b.downIndex[p] = i
	for _, r := range ranges {
		b.addrMap.Add(r, i)
	}

	q := mem.NewPacketQueue(fmt.Sprintf("%s.reqq[%d]", b.name, i), b.eq, func(pkt *mem.Packet) bool {
		return p.SendTimingReq(pkt)
	})
	idx := i
	q.OnDrain = func() { b.wakeReqWaiters(idx) }
	b.reqQueues = append(b.reqQueues, q)
	b.reqWaiters = append(b.reqWaiters, nil)
	return p
}

// AddRange routes additional ranges to an existing downstream port.
func (b *Bus) AddRange(p *mem.RequestPort, r mem.AddrRange) {
	i, ok := b.downIndex[p]
	if !ok {
		panic("interconnect: AddRange on foreign port")
	}
	b.addrMap.Add(r, i)
}

func (b *Bus) serialization(bytes int) sim.Tick {
	if b.cfg.BandwidthGBps <= 0 {
		return 0
	}
	return sim.Tick(float64(bytes)*1000/b.cfg.BandwidthGBps + 0.5)
}

// RecvTimingReq implements mem.Responder: a request arrives from an
// upstream port and is routed downstream.
func (b *Bus) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	target, ok := b.addrMap.Find(pkt.Addr)
	if !ok {
		panic(fmt.Sprintf("%s: no route for %v", b.name, pkt))
	}
	q := b.reqQueues[target]
	if q.Len() >= b.cfg.QueueDepth {
		b.retries.Inc()
		b.reqWaiters[target] = append(b.reqWaiters[target], port)
		return false
	}

	now := b.eq.Now()
	ser := b.serialization(pkt.Size)
	start := now
	if b.reqLayerFree > start {
		start = b.reqLayerFree
	}
	b.reqLayerFree = start + ser

	b.pktCount.Inc()
	b.pktBytes.Add(uint64(pkt.Size))
	pkt.PushRoute(port)
	q.Schedule(pkt, start+ser+b.cfg.Latency)
	return true
}

// RecvTimingResp implements mem.Requestor: a response arrives from a
// downstream port and retraces the route stack upstream.
func (b *Bus) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	up := pkt.PopRoute()
	i, ok := b.upIndex[up]
	if !ok {
		panic(fmt.Sprintf("%s: response routed to foreign port", b.name))
	}
	q := b.respQueues[i]
	if q.Len() >= b.cfg.QueueDepth {
		pkt.PushRoute(up) // undo; the sender will retry
		di := b.downIndex[port]
		b.respWaiters[i] = append(b.respWaiters[i], b.downPorts[di])
		return false
	}

	now := b.eq.Now()
	ser := b.serialization(pkt.Size)
	start := now
	if b.rspLayerFree > start {
		start = b.rspLayerFree
	}
	b.rspLayerFree = start + ser

	q.Schedule(pkt, start+ser+b.cfg.Latency)
	return true
}

// RecvRetryReq implements mem.Requestor: a downstream responder is
// ready again; unblock that egress queue.
func (b *Bus) RecvRetryReq(port *mem.RequestPort) {
	b.reqQueues[b.downIndex[port]].RetryReceived()
}

// RecvRetryResp implements mem.Responder: an upstream requestor is
// ready again; unblock that egress queue.
func (b *Bus) RecvRetryResp(port *mem.ResponsePort) {
	b.respQueues[b.upIndex[port]].RetryReceived()
}

func (b *Bus) wakeReqWaiters(target int) {
	if b.reqQueues[target].Len() >= b.cfg.QueueDepth {
		return
	}
	waiters := b.reqWaiters[target]
	if len(waiters) == 0 {
		return
	}
	w := waiters[0]
	b.reqWaiters[target] = waiters[1:]
	w.SendRetryReq()
}

func (b *Bus) wakeRespWaiters(i int) {
	if b.respQueues[i].Len() >= b.cfg.QueueDepth {
		return
	}
	waiters := b.respWaiters[i]
	if len(waiters) == 0 {
		return
	}
	w := waiters[0]
	b.respWaiters[i] = waiters[1:]
	w.SendRetryResp()
}

// Audit reports the state a bus must not hold once its run has
// drained: a packet queued in, or a block on, any egress queue, and a
// refused port still waiting for its retry.
func (b *Bus) Audit() error {
	var errs []error
	queue := func(name string, i int, q *mem.PacketQueue, waiters int) {
		if !q.Empty() || q.Blocked() || waiters != 0 {
			errs = append(errs, fmt.Errorf("%s.%s[%d]: %d packets queued, blocked %v, %d refused ports waiting",
				b.name, name, i, q.Len(), q.Blocked(), waiters))
		}
	}
	for i, q := range b.reqQueues {
		queue("reqq", i, q, len(b.reqWaiters[i]))
	}
	for i, q := range b.respQueues {
		queue("respq", i, q, len(b.respWaiters[i]))
	}
	return errors.Join(errs...)
}

var _ mem.Requestor = (*Bus)(nil)
var _ mem.Responder = (*Bus)(nil)
