package pcie

import (
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Endpoint is the device-side PCIe bridge inside the accelerator
// wrapper. The device (DMA engine, controller) drives DevPort with
// requests aimed at host memory; host-initiated TLPs (MMIO to CSRs,
// DevMem window accesses) leave through BusPort into the device's
// internal interconnect.
type Endpoint struct {
	name string
	idx  int
	eq   *sim.EventQueue
	cfg  Config

	devPort *mem.ResponsePort // from device internals (DMA)
	busPort *mem.RequestPort  // to device internals (CSRs, DevMem)

	devRespQ *mem.PacketQueue // completions back to the device
	busReqQ  *mem.PacketQueue // unwrapped host requests into the device

	up   *conn // EP -> switch; set at tree construction
	pool *tlpPool

	// proc is the EP's processing pipeline, shared by both directions.
	proc         pipe
	devNeedRetry bool

	ranges []mem.AddrRange

	tlpsUp   *stats.Counter
	tlpsDown *stats.Counter
	bytesUp  *stats.Counter
}

func newEndpoint(name string, idx int, eq *sim.EventQueue, reg *stats.Registry, cfg Config, pool *tlpPool, ranges []mem.AddrRange) *Endpoint {
	ep := &Endpoint{name: name, idx: idx, eq: eq, cfg: cfg, pool: pool, ranges: ranges,
		proc: newPipe(eq, name, cfg.EPProcII, cfg.EPLatency)}
	ep.devPort = mem.NewResponsePort(name+".dev", ep)
	ep.busPort = mem.NewRequestPort(name+".bus", ep)
	ep.devRespQ = mem.NewPacketQueue(name+".devrespq", eq, func(p *mem.Packet) bool {
		return ep.devPort.SendTimingResp(p)
	})
	ep.busReqQ = mem.NewPacketQueue(name+".busreqq", eq, func(p *mem.Packet) bool {
		return ep.busPort.SendTimingReq(p)
	})
	g := reg.Group(name)
	ep.tlpsUp = g.Counter("tlps_up", "TLPs sent upstream")
	ep.tlpsDown = g.Counter("tlps_down", "TLPs received downstream")
	ep.bytesUp = g.Counter("bytes_up", "TLP bytes sent upstream")
	return ep
}

// DevPort is driven by the device's DMA engine and controller for
// host-bound traffic.
func (ep *Endpoint) DevPort() *mem.ResponsePort { return ep.devPort }

// BusPort drives host-initiated requests into the device internals.
func (ep *Endpoint) BusPort() *mem.RequestPort { return ep.busPort }

// Ranges returns the address windows (BARs, DevMem aperture) this
// endpoint claims on the fabric.
func (ep *Endpoint) Ranges() []mem.AddrRange { return ep.ranges }

// send processes t and then puts it on the link toward the switch.
func (ep *Endpoint) send(t *TLP) {
	ep.tlpsUp.Inc()
	ep.bytesUp.Add(uint64(t.Bytes))
	t.stage = stageSend
	t.sendConn = ep.up
	ep.proc.enter(t, ep.eq.Now())
}

// RecvTimingReq implements mem.Responder: device-initiated (DMA)
// request toward host memory.
func (ep *Endpoint) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	if ep.up.queued() >= ep.cfg.TxQueueDepth {
		ep.devNeedRetry = true
		return false
	}

	t := ep.pool.get()
	switch pkt.Cmd {
	case mem.ReadReq:
		t.Kind, t.Pkt, t.Bytes, t.SrcEP = MemRd, pkt, ep.cfg.TLPHeaderBytes, ep.idx
	case mem.WriteReq:
		clone := cloneWrite(pkt)
		clone.PushState(postedClone{})
		t.Kind, t.Pkt, t.Bytes, t.SrcEP = MemWr, clone, ep.cfg.TLPHeaderBytes+pkt.Size, ep.idx
		pkt.MakeResponse()
		ep.devRespQ.Schedule(pkt, ep.eq.Now()+ep.cfg.EPLatency)
	default:
		panic(fmt.Sprintf("pcie: %s unexpected device command %v", ep.name, pkt.Cmd))
	}

	ep.send(t)
	return true
}

// deliverTLP implements receiver: downstream traffic from the switch.
func (ep *Endpoint) deliverTLP(from *conn, t *TLP) {
	ep.tlpsDown.Inc()
	t.stage = stageEPUnwrap
	t.dlvEP = ep
	ep.proc.enter(t, ep.eq.Now())
}

// unwrap hands the TLP's payload to the device side once it has left
// the EP's processing pipeline, and retires the TLP.
func (ep *Endpoint) unwrap(t *TLP) {
	t.dlvFrom.release(t)
	switch t.Kind {
	case Cpl:
		// Completion of a device DMA read.
		ep.devRespQ.Schedule(t.Pkt, ep.eq.Now())
	case MemRd, MemWr:
		// Host-initiated access into the device.
		ep.busReqQ.Schedule(t.Pkt, ep.eq.Now())
	}
	ep.pool.put(t)
}

// RecvTimingResp implements mem.Requestor: the device internals
// answered a host-initiated request; send the completion upstream
// (posted-write responses are dropped).
func (ep *Endpoint) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	if pkt.Cmd == mem.WriteResp {
		// Writes travelling downstream are posted clones; their marker
		// is still stacked. Discard.
		pkt.PopState()
		pkt.Release()
		return true
	}
	t := ep.pool.get()
	t.Kind, t.Pkt, t.Bytes, t.SrcEP = Cpl, pkt, ep.cfg.TLPHeaderBytes+pkt.Size, ep.idx
	ep.send(t)
	return true
}

// RecvRetryReq implements mem.Requestor.
func (ep *Endpoint) RecvRetryReq(port *mem.RequestPort) { ep.busReqQ.RetryReceived() }

// RecvRetryResp implements mem.Responder.
func (ep *Endpoint) RecvRetryResp(port *mem.ResponsePort) { ep.devRespQ.RetryReceived() }

func (ep *Endpoint) wakeDev() {
	if !ep.devNeedRetry {
		return
	}
	ep.devNeedRetry = false
	ep.devPort.SendRetryReq()
}

var _ mem.Requestor = (*Endpoint)(nil)
var _ mem.Responder = (*Endpoint)(nil)
var _ receiver = (*Endpoint)(nil)
