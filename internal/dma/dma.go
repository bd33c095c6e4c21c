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

// Validate checks the resolved configuration: the channel count, burst
// and window are positive, and no burst crosses a page. Each error
// names its field.
func (c Config) Validate() error {
	c.setDefaults()
	for _, f := range []struct {
		name string
		n    int
	}{
		{"Channels", c.Channels},
		{"BurstBytes", c.BurstBytes},
		{"WindowBytes", c.WindowBytes},
	} {
		if f.n <= 0 {
			return fmt.Errorf("%s %d is not positive", f.name, f.n)
		}
	}
	if uint64(c.BurstBytes) > c.PageBytes {
		return fmt.Errorf("BurstBytes %d exceeds PageBytes %d", c.BurstBytes, c.PageBytes)
	}
	return nil
}

// transfer is one queued descriptor. Records are recycled through the
// engine's freelist.
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
	e   *Engine
	idx int
	// queue holds the transfers waiting behind cur, oldest first; it is
	// popped by shifting down, so its array is reused.
	queue []*transfer
	cur   *transfer
	// startFn is the bound start method, made once so that scheduling
	// a transfer's start allocates no closure.
	startFn func()
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

// getTransfer leases a transfer record from the engine's freelist.
func (e *Engine) getTransfer() *transfer {
	if n := len(e.trFree); n > 0 {
		t := e.trFree[n-1]
		e.trFree[n-1] = nil
		e.trFree = e.trFree[:n-1]
		return t
	}
	e.trMade++
	return &transfer{}
}

func (e *Engine) putTransfer(t *transfer) {
	*t = transfer{}
	e.trFree = append(e.trFree, t)
}

// Engine is a multi-channel DMA engine sharing one request port.
type Engine struct {
	name string
	eq   *sim.EventQueue
	pkts *mem.Packets
	cfg  Config

	port  *mem.RequestPort
	reqQ  *mem.PacketQueue
	chans []channel

	bsFree []*burstState // recycled burst-state records
	bsMade int           // records ever allocated, for Audit
	trFree []*transfer   // recycled transfer records
	trMade int           // records ever allocated, for Audit

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
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("dma %s: %v", name, err))
	}
	cfg.setDefaults()
	e := &Engine{name: name, eq: eq, pkts: pkts, cfg: cfg}
	e.port = mem.NewRequestPort(name+".port", e)
	e.reqQ = mem.NewPacketQueue(name+".reqq", eq, func(p *mem.Packet) bool {
		return e.port.SendTimingReq(p)
	})
	e.chans = make([]channel, cfg.Channels)
	for i := range e.chans {
		c := &e.chans[i]
		c.e, c.idx = e, i
		c.startFn = c.start
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
// nil for timing-only traffic, whose bursts then carry no payload).
// onDone fires when the last burst lands. The transfer is assigned to
// channel ch mod Channels.
func (e *Engine) Read(ch int, addr uint64, n int, buf []byte, onDone func()) {
	e.submit(ch, false, addr, n, buf, onDone)
}

// Write schedules a scatter of n bytes to addr. data may be nil for
// timing-only traffic; otherwise n = len(data).
func (e *Engine) Write(ch int, addr uint64, n int, data []byte, onDone func()) {
	if data != nil && len(data) != n {
		panic(fmt.Sprintf("dma %s: write size %d != len(data) %d", e.name, n, len(data)))
	}
	e.submit(ch, true, addr, n, data, onDone)
}

func (e *Engine) submit(ch int, isWrite bool, addr uint64, n int, buf []byte, onDone func()) {
	if n <= 0 {
		panic(fmt.Sprintf("dma %s: empty transfer", e.name))
	}
	t := e.getTransfer()
	t.isWrite, t.addr, t.n, t.buf, t.onDone = isWrite, addr, n, buf, onDone
	c := &e.chans[ch%len(e.chans)]
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
	n := copy(c.queue, c.queue[1:])
	c.queue[n] = nil
	c.queue = c.queue[:n]
	c.cur.started = false
	c.e.eq.ScheduleAfter(c.startFn, c.e.cfg.StartLatency)
}

// start begins issuing the current transfer once its descriptor
// latency has passed.
func (c *channel) start() {
	c.cur.started = true
	c.cur.issuedAt = c.e.eq.Now()
	c.pump()
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
			// Nothing reads a timing-only burst's payload, so no
			// responder need materialise it.
			pkt.NoPayload = t.buf == nil
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
		// c.cur still names t while onDone runs, so a transfer it
		// submits to this channel queues behind t; t is returned after.
		e.putTransfer(t)
		c.next()
	} else {
		c.pump()
	}
	return true
}

// Audit reports the state an engine must not hold once its run has
// drained: a current or queued transfer on any channel, bursts still
// queued or in flight, and burst-state and transfer records not back
// on their freelists (each in-flight burst holds one of the first,
// each current or queued transfer one of the second).
func (e *Engine) Audit() error {
	var errs []error
	for i := range e.chans {
		c := &e.chans[i]
		if c.cur != nil || len(c.queue) != 0 {
			errs = append(errs, fmt.Errorf("%s.ch%d: transfer in progress %v, %d queued", e.name, c.idx, c.cur != nil, len(c.queue)))
		}
	}
	if n := e.bsMade - len(e.bsFree); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d bursts in flight or their state records lost", e.name, n))
	}
	if n := e.trMade - len(e.trFree); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d transfers in progress or their records lost", e.name, n))
	}
	if !e.reqQ.Empty() || e.reqQ.Blocked() {
		errs = append(errs, fmt.Errorf("%s.reqq: %d bursts queued, blocked %v", e.name, e.reqQ.Len(), e.reqQ.Blocked()))
	}
	return errors.Join(errs...)
}

// RecvRetryReq implements mem.Requestor.
func (e *Engine) RecvRetryReq(port *mem.RequestPort) { e.reqQ.RetryReceived() }

var _ mem.Requestor = (*Engine)(nil)
