package dram

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Config parameterizes a DRAM device.
type Config struct {
	Spec  Spec
	Range mem.AddrRange
	// FrontendLatency covers controller decode/queueing; applied per
	// request before scheduling (default 10 ns).
	FrontendLatency sim.Tick
	// BackendLatency covers data return to the bus (default 2 ns).
	BackendLatency sim.Tick
	// ReadQDepth / WriteQDepth cap per-channel queues (defaults 32/64).
	ReadQDepth  int
	WriteQDepth int
	// InterleaveBytes sets channel interleaving granularity
	// (default 256).
	InterleaveBytes uint64
	// StarvationLimit bounds consecutive row-hit bypasses in FR-FCFS
	// (default 16).
	StarvationLimit int
}

func (c *Config) setDefaults() {
	if c.FrontendLatency == 0 {
		c.FrontendLatency = 10 * sim.Nanosecond
	}
	if c.BackendLatency == 0 {
		c.BackendLatency = 2 * sim.Nanosecond
	}
	if c.ReadQDepth == 0 {
		c.ReadQDepth = 32
	}
	if c.WriteQDepth == 0 {
		c.WriteQDepth = 64
	}
	if c.InterleaveBytes == 0 {
		c.InterleaveBytes = 256
	}
	if c.StarvationLimit == 0 {
		c.StarvationLimit = 16
	}
}

type dramReq struct {
	pkt     *mem.Packet
	co      coord
	nBursts int
	arrived sim.Tick
	isWrite bool
}

// chanCtrl is the per-channel front-end: FR-FCFS read queue, write
// queue with watermark draining, and a kick event that issues requests
// against the channel timing model.
type chanCtrl struct {
	d      *DRAM
	idx    int
	ch     *channel
	readQ  []*dramReq
	writeQ []*dramReq
	hitRun int
	drain  bool
	kick   *sim.Event
}

// DRAM is a multi-channel memory device with one response port.
type DRAM struct {
	name string
	eq   *sim.EventQueue
	cfg  Config

	port  *mem.ResponsePort
	respQ *mem.PacketQueue
	store *mem.Storage

	chans     []*chanCtrl
	reqFree   []*dramReq // recycled queue entries
	reqsMade  int        // entries ever allocated, for Audit
	needRetry bool

	reads     *stats.Counter
	writes    *stats.Counter
	bytes     *stats.Counter
	rowHits   *stats.Counter
	rowMisses *stats.Counter
	refreshes *stats.Counter
	latency   *stats.Distribution
}

// New builds a DRAM device. The range size must not exceed the spec's
// total capacity.
func New(name string, eq *sim.EventQueue, reg *stats.Registry, cfg Config) *DRAM {
	cfg.setDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	total := cfg.Spec.CapacityPerChannel * uint64(cfg.Spec.Channels)
	if cfg.Range.Size() > total {
		panic(fmt.Sprintf("dram: range %v exceeds %s capacity %d", cfg.Range, cfg.Spec.Name, total))
	}
	d := &DRAM{name: name, eq: eq, cfg: cfg}
	d.port = mem.NewResponsePort(name+".port", d)
	d.respQ = mem.NewPacketQueue(name+".resp", eq, func(p *mem.Packet) bool {
		return d.port.SendTimingResp(p)
	})
	d.store = mem.NewStorage(cfg.Range.Size())

	for i := 0; i < cfg.Spec.Channels; i++ {
		cc := &chanCtrl{d: d, idx: i, ch: newChannel(cfg.Spec)}
		cc.kick = eq.NewEvent(fmt.Sprintf("%s.ch%d.kick", name, i), cc.issue)
		d.chans = append(d.chans, cc)
	}

	g := reg.Group(name)
	d.reads = g.Counter("reads", "read requests")
	d.writes = g.Counter("writes", "write requests")
	d.bytes = g.Counter("bytes", "bytes transferred")
	d.rowHits = g.Counter("row_hits", "row buffer hits")
	d.rowMisses = g.Counter("row_misses", "row buffer misses")
	d.refreshes = g.Counter("refreshes", "all-bank refreshes")
	d.latency = g.Distribution("latency_ns", "request latency")
	g.Formula("row_hit_rate", "row buffer hit fraction", func() float64 {
		total := d.rowHits.Value() + d.rowMisses.Value()
		if total == 0 {
			return 0
		}
		return d.rowHits.Value() / total
	})
	return d
}

// Port returns the device's response port.
func (d *DRAM) Port() *mem.ResponsePort { return d.port }

// Ranges returns the served address ranges.
func (d *DRAM) Ranges() []mem.AddrRange { return []mem.AddrRange{d.cfg.Range} }

// Spec returns the configured technology.
func (d *DRAM) Spec() Spec { return d.cfg.Spec }

// channelOf decomposes a device offset into (channel, channel-local
// address) using block interleaving.
func (d *DRAM) channelOf(offset uint64) (int, uint64) {
	n := uint64(len(d.chans))
	blk := offset / d.cfg.InterleaveBytes
	within := offset % d.cfg.InterleaveBytes
	ch := blk % n
	local := (blk/n)*d.cfg.InterleaveBytes + within
	return int(ch), local
}

// RecvTimingReq implements mem.Responder.
func (d *DRAM) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	offset := d.cfg.Range.Offset(pkt.Addr)
	chIdx, local := d.channelOf(offset)
	cc := d.chans[chIdx]

	isWrite := pkt.Cmd.IsWrite()
	if isWrite && len(cc.writeQ) >= d.cfg.WriteQDepth ||
		!isWrite && len(cc.readQ) >= d.cfg.ReadQDepth {
		d.needRetry = true
		return false
	}

	// Functional access happens at acceptance: reads observe current
	// contents, writes commit (write-queue forwarding is thus implicit).
	d.store.Access(pkt, offset)

	bb := d.cfg.Spec.BurstBytes()
	req := d.getReq()
	req.co = cc.ch.decompose(local)
	req.nBursts = (pkt.Size + bb - 1) / bb
	req.arrived = d.eq.Now()
	req.isWrite = isWrite
	if req.nBursts == 0 {
		req.nBursts = 1
	}
	if isWrite {
		d.writes.Inc()
		cc.writeQ = append(cc.writeQ, req)
		// Writes complete at the controller (posted) after the
		// frontend latency; the drain happens in the background. The
		// requester may release the packet on the ack, so the queued
		// request must not keep a reference (req.pkt stays nil).
		pkt.MakeResponse()
		d.respQ.Schedule(pkt, d.eq.Now()+d.cfg.FrontendLatency)
	} else {
		d.reads.Inc()
		req.pkt = pkt
		cc.readQ = append(cc.readQ, req)
	}
	d.bytes.Add(uint64(pkt.Size))
	cc.schedule(d.eq.Now() + d.cfg.FrontendLatency)
	return true
}

func (cc *chanCtrl) schedule(at sim.Tick) {
	if at < cc.d.eq.Now() {
		at = cc.d.eq.Now()
	}
	if cc.kick.Pending() {
		if cc.kick.When() <= at {
			return
		}
		cc.d.eq.Deschedule(cc.kick)
	}
	cc.d.eq.ScheduleEvent(cc.kick, at, sim.PriorityDefault)
}

// pick selects the next request FR-FCFS: the oldest row-hit unless the
// starvation bound is hit, else the oldest request.
func (cc *chanCtrl) pick(q []*dramReq) int {
	if cc.hitRun < cc.d.cfg.StarvationLimit {
		for i, r := range q {
			if cc.ch.rowHit(r.co) {
				if i != 0 {
					cc.hitRun++
				}
				return i
			}
		}
	}
	cc.hitRun = 0
	return 0
}

// issue runs scheduling rounds on the channel. Column commands pipeline
// under the in-flight data transfer, so the controller keeps issuing
// until the data bus is filled one column-latency ahead of now, then
// re-kicks just in time to extend the bus schedule seamlessly.
func (cc *chanCtrl) issue() {
	d := cc.d
	lookahead := cc.ch.t.cl

	for {
		now := d.eq.Now()
		if cc.ch.busFree > now+lookahead {
			cc.schedule(cc.ch.busFree - lookahead)
			return
		}

		// Enter/leave write drain mode with hysteresis.
		if len(cc.writeQ) >= d.cfg.WriteQDepth*3/4 {
			cc.drain = true
		}
		if len(cc.writeQ) == 0 || (cc.drain && len(cc.writeQ) <= d.cfg.WriteQDepth/4) {
			cc.drain = false
		}

		var q *[]*dramReq
		switch {
		case len(cc.readQ) > 0 && !cc.drain:
			q = &cc.readQ
		case len(cc.writeQ) > 0:
			q = &cc.writeQ
		case len(cc.readQ) > 0:
			q = &cc.readQ
		default:
			return
		}

		i := cc.pick(*q)
		req := (*q)[i]
		*q = append((*q)[:i], (*q)[i+1:]...)

		hitsBefore, missesBefore := cc.ch.rowHits, cc.ch.rowMisses
		refBefore := cc.ch.refreshes
		dataEnd := cc.ch.access(now, req.co, req.isWrite, req.nBursts)
		d.rowHits.Add(cc.ch.rowHits - hitsBefore)
		d.rowMisses.Add(cc.ch.rowMisses - missesBefore)
		d.refreshes.Add(cc.ch.refreshes - refBefore)

		if !req.isWrite {
			done := dataEnd + d.cfg.BackendLatency
			d.latency.Sample(float64(done-req.arrived) / float64(sim.Nanosecond))
			req.pkt.MakeResponse()
			d.respQ.Schedule(req.pkt, done)
		}
		d.putReq(req)
		d.maybeRetry()
	}
}

// getReq leases a zeroed queue entry from the controller's freelist.
func (d *DRAM) getReq() *dramReq {
	if n := len(d.reqFree); n > 0 {
		req := d.reqFree[n-1]
		d.reqFree[n-1] = nil
		d.reqFree = d.reqFree[:n-1]
		return req
	}
	d.reqsMade++
	return new(dramReq)
}

// putReq recycles an issued queue entry.
func (d *DRAM) putReq(req *dramReq) {
	*req = dramReq{}
	d.reqFree = append(d.reqFree, req)
}

func (d *DRAM) maybeRetry() {
	if !d.needRetry {
		return
	}
	d.needRetry = false
	d.port.SendRetryReq()
}

// Audit reports the state a controller must not hold once its run has
// drained: requests still queued on a channel, queue entries not back
// on the freelist, and queued or blocked responses.
func (d *DRAM) Audit() error {
	var errs []error
	queued := 0
	for _, cc := range d.chans {
		if len(cc.readQ) != 0 || len(cc.writeQ) != 0 {
			errs = append(errs, fmt.Errorf("%s.ch%d: %d reads and %d writes queued", d.name, cc.idx, len(cc.readQ), len(cc.writeQ)))
		}
		queued += len(cc.readQ) + len(cc.writeQ)
	}
	if n := d.reqsMade - len(d.reqFree) - queued; n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d request entries lost", d.name, n))
	}
	errs = append(errs, d.respQ.Audit(d.name+".respq"))
	return errors.Join(errs...)
}

// RecvRetryResp implements mem.Responder.
func (d *DRAM) RecvRetryResp(port *mem.ResponsePort) { d.respQ.RetryReceived() }

// ReadFunctional implements mem.Functional.
func (d *DRAM) ReadFunctional(addr uint64, buf []byte) {
	d.store.Read(d.cfg.Range.Offset(addr), buf)
}

// WriteFunctional implements mem.Functional.
func (d *DRAM) WriteFunctional(addr uint64, data []byte) {
	d.store.Write(d.cfg.Range.Offset(addr), data)
}

var _ mem.Responder = (*DRAM)(nil)
var _ mem.Functional = (*DRAM)(nil)
