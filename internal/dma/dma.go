// Package dma implements the multi-channel DMA engine inside the
// accelerator wrapper. Transfers are split into bursts of a
// configurable request size (the paper's packet-size knob, Fig. 4),
// never crossing page boundaries (the SMMU translates per page), and
// are windowed by a configurable number of in-flight bytes per channel.
package dma

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// DefaultPageBytes is the page size an engine splits bursts at unless
// its config names another: the largest burst a default engine takes.
const DefaultPageBytes = 4096

// Config parameterizes an Engine.
type Config struct {
	// Channels is the number of independent DMA channels (default 4).
	Channels int
	// BurstBytes is the request packet size (default 256).
	BurstBytes int
	// WindowBytes bounds in-flight bytes per channel (default 8192).
	WindowBytes int
	// PageBytes is the boundary every burst is split at
	// (0 means DefaultPageBytes). BurstBytes may not exceed it.
	PageBytes uint64
	// StartLatency models descriptor fetch/decode per transfer
	// (default 40 ns).
	StartLatency sim.Tick
	// Uncacheable marks all traffic to bypass caches (DM access mode).
	Uncacheable bool
}

func (c *Config) setDefaults() {
	if c.Channels == 0 {
		c.Channels = 4
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = 256
	}
	if c.WindowBytes == 0 {
		c.WindowBytes = 8192
	}
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	if c.StartLatency == 0 {
		c.StartLatency = 40 * sim.Nanosecond
	}
}

// Resolved returns the configuration with every zero field replaced
// by its default — what an Engine actually runs with. Analytic models
// derive burst and window constants from this.
func (c Config) Resolved() Config {
	c.setDefaults()
	return c
}

// transfer is one queued descriptor.
type transfer struct {
	isWrite bool
	addr    uint64
	n       int
	buf     []byte // destination (reads) or source (writes); may be nil
	onDone  func()

	offset    int // next byte to issue
	inflight  int
	completed int
	started   bool
	issuedAt  sim.Tick
}

type channel struct {
	e     *Engine
	idx   int
	queue []*transfer
	cur   *transfer
}

type burstState struct {
	ch  *channel
	t   *transfer
	off int
	n   int
}

// getBS leases a burst-state record from the engine's freelist so
// stacking one on a packet does not allocate per burst.
func (e *Engine) getBS() *burstState {
	if n := len(e.bsFree); n > 0 {
		st := e.bsFree[n-1]
		e.bsFree[n-1] = nil
		e.bsFree = e.bsFree[:n-1]
		return st
	}
	e.bsMade++
	return &burstState{}
}

func (e *Engine) putBS(st *burstState) {
	*st = burstState{}
	e.bsFree = append(e.bsFree, st)
}

// Engine is a multi-channel DMA engine sharing one request port.
type Engine struct {
	name string
	eq   *sim.EventQueue
	pkts *mem.Packets
	cfg  Config

	port  *mem.RequestPort
	reqQ  *mem.PacketQueue
	chans []*channel

	bsFree []*burstState // recycled burst-state records
	bsMade int           // records ever allocated, for Audit

	descriptors *stats.Counter
	bursts      *stats.Counter
	bytesRead   *stats.Counter
	bytesWrit   *stats.Counter
	latency     *stats.Distribution
}

// New builds an Engine that leases its bursts from pkts; bind Port()
// to the PCIe endpoint (host path) or to the device memory fabric
// (DevMem path).
func New(name string, eq *sim.EventQueue, pkts *mem.Packets, reg *stats.Registry, cfg Config) *Engine {
	cfg.setDefaults()
	if cfg.BurstBytes > int(cfg.PageBytes) {
		panic(fmt.Sprintf("dma %s: burst %d exceeds page size %d", name, cfg.BurstBytes, cfg.PageBytes))
	}
	e := &Engine{name: name, eq: eq, pkts: pkts, cfg: cfg}
	e.port = mem.NewRequestPort(name+".port", e)
	e.reqQ = mem.NewPacketQueue(name+".reqq", eq, func(p *mem.Packet) bool {
		return e.port.SendTimingReq(p)
	})
	for i := 0; i < cfg.Channels; i++ {
		e.chans = append(e.chans, &channel{e: e, idx: i})
	}
	g := reg.Group(name)
	e.descriptors = g.Counter("descriptors", "transfers processed")
	e.bursts = g.Counter("bursts", "burst requests issued")
	e.bytesRead = g.Counter("bytes_read", "bytes read")
	e.bytesWrit = g.Counter("bytes_written", "bytes written")
	e.latency = g.Distribution("transfer_ns", "descriptor completion latency")
	return e
}

// Port returns the engine's request port.
func (e *Engine) Port() *mem.RequestPort { return e.port }

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetBurstBytes changes the request packet size for subsequently
// issued bursts (the accelerator's RegBurst CSR drives this).
func (e *Engine) SetBurstBytes(n int) {
	if n <= 0 || n > int(e.cfg.PageBytes) {
		panic(fmt.Sprintf("dma %s: invalid burst size %d", e.name, n))
	}
	e.cfg.BurstBytes = n
}

// Read schedules a gather of n bytes from addr into buf (which may be
// nil for timing-only traffic). onDone fires when the last burst
// lands. The transfer is assigned to channel ch mod Channels.
func (e *Engine) Read(ch int, addr uint64, n int, buf []byte, onDone func()) {
	e.submit(ch, &transfer{isWrite: false, addr: addr, n: n, buf: buf, onDone: onDone})
}

// Write schedules a scatter of n bytes to addr. data may be nil for
// timing-only traffic; otherwise n = len(data).
func (e *Engine) Write(ch int, addr uint64, n int, data []byte, onDone func()) {
	if data != nil && len(data) != n {
		panic(fmt.Sprintf("dma %s: write size %d != len(data) %d", e.name, n, len(data)))
	}
	e.submit(ch, &transfer{isWrite: true, addr: addr, n: n, buf: data, onDone: onDone})
}

func (e *Engine) submit(ch int, t *transfer) {
	if t.n <= 0 {
		panic(fmt.Sprintf("dma %s: empty transfer", e.name))
	}
	c := e.chans[ch%len(e.chans)]
	c.queue = append(c.queue, t)
	e.descriptors.Inc()
	if c.cur == nil {
		c.next()
	}
}

func (c *channel) next() {
	if len(c.queue) == 0 {
		c.cur = nil
		return
	}
	c.cur = c.queue[0]
	c.queue = c.queue[1:]
	c.cur.started = false
	c.e.eq.ScheduleAfter(func() {
		c.cur.started = true
		c.cur.issuedAt = c.e.eq.Now()
		c.pump()
	}, c.e.cfg.StartLatency)
}

// pump issues bursts while the window allows.
func (c *channel) pump() {
	t := c.cur
	if t == nil || !t.started {
		return
	}
	for t.offset < t.n && t.inflight < c.e.cfg.WindowBytes {
		n := c.e.cfg.BurstBytes
		if rem := t.n - t.offset; n > rem {
			n = rem
		}
		// Split at page boundaries for the SMMU.
		addr := t.addr + uint64(t.offset)
		if c.e.cfg.PageBytes > 0 {
			if room := int(c.e.cfg.PageBytes - addr%c.e.cfg.PageBytes); n > room {
				n = room
			}
		}

		var pkt *mem.Packet
		if t.isWrite {
			if t.buf != nil {
				pkt = c.e.pkts.NewWrite(addr, t.buf[t.offset:t.offset+n])
			} else {
				pkt = c.e.pkts.NewWriteSize(addr, n)
			}
			c.e.bytesWrit.Add(uint64(n))
		} else {
			pkt = c.e.pkts.NewRead(addr, n)
			c.e.bytesRead.Add(uint64(n))
		}
		pkt.Uncacheable = c.e.cfg.Uncacheable
		pkt.Issued = c.e.eq.Now()
		st := c.e.getBS()
		st.ch, st.t, st.off, st.n = c, t, t.offset, n
		pkt.PushState(st)
		t.offset += n
		t.inflight += n
		c.e.bursts.Inc()
		c.e.reqQ.Schedule(pkt, c.e.eq.Now())
	}
}

// RecvTimingResp implements mem.Requestor.
func (e *Engine) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	st := pkt.PopState().(*burstState)
	c, t := st.ch, st.t
	if !t.isWrite && t.buf != nil && pkt.Data != nil {
		copy(t.buf[st.off:st.off+st.n], pkt.Data[:st.n])
	}
	t.inflight -= st.n
	t.completed += st.n
	e.putBS(st)
	pkt.Release() // the engine originated this burst; its round trip ends here
	if t.completed == t.n {
		e.latency.Sample(float64(e.eq.Now()-t.issuedAt) / float64(sim.Nanosecond))
		if t.onDone != nil {
			t.onDone()
		}
		c.next()
	} else {
		c.pump()
	}
	return true
}

// Audit reports the state an engine must not hold once its run has
// drained: a current or queued transfer on any channel, bursts still
// queued or in flight, and burst-state records not back on the
// freelist (each in-flight burst holds one).
func (e *Engine) Audit() error {
	var errs []error
	for _, c := range e.chans {
		if c.cur != nil || len(c.queue) != 0 {
			errs = append(errs, fmt.Errorf("%s.ch%d: transfer in progress %v, %d queued", e.name, c.idx, c.cur != nil, len(c.queue)))
		}
	}
	if n := e.bsMade - len(e.bsFree); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d bursts in flight or their state records lost", e.name, n))
	}
	if !e.reqQ.Empty() || e.reqQ.Blocked() {
		errs = append(errs, fmt.Errorf("%s.reqq: %d bursts queued, blocked %v", e.name, e.reqQ.Len(), e.reqQ.Blocked()))
	}
	return errors.Join(errs...)
}

// RecvRetryReq implements mem.Requestor.
func (e *Engine) RecvRetryReq(port *mem.RequestPort) { e.reqQ.RetryReceived() }

var _ mem.Requestor = (*Engine)(nil)
