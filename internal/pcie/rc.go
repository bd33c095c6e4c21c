package pcie

import (
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// epOrigin is stacked on upstream request packets so the response can
// be steered back to the right endpoint as a completion.
type epOrigin struct{ ep int }

// postedClone marks a cloned write created for posted-write semantics;
// its response is dropped at the far bridge.
type postedClone struct{}

// RootComplex bridges the PCIe fabric to the host memory system. Two
// traffic directions cross it:
//
//   - Upstream (device DMA): TLPs arriving from the switch are
//     unwrapped after RCLatency and issued into the host memory system
//     through UpstreamPort; responses come back and leave as
//     completions.
//   - Downstream (host MMIO / DevMem over PCIe): requests received on
//     HostPort are wrapped into TLPs and sent toward the switch; their
//     completions are matched back and answered on HostPort.
//
// Memory writes are posted in both directions, as in real PCIe: the
// writer gets its acknowledgment at the bridge and a cloned write
// travels on.
type RootComplex struct {
	name string
	eq   *sim.EventQueue
	cfg  Config

	upPort   *mem.RequestPort  // toward IOCache / membus
	hostPort *mem.ResponsePort // from membus (host-initiated)

	memQ  *mem.PacketQueue // unwrapped upstream requests out upPort
	respQ *mem.PacketQueue // responses to host out hostPort

	down *conn // RC -> switch; set at tree construction
	pool *tlpPool

	// Processing pipelines: up unwraps device TLPs into host memory,
	// down wraps host requests and DMA completions into TLPs.
	upPipe   pipe
	downPipe pipe

	hostNeedRetry bool

	// epStates caches boxed epOrigin values so stacking one on an
	// upstream request does not allocate per packet.
	epStates []any

	tlpsUp    *stats.Counter
	tlpsDown  *stats.Counter
	bytesUp   *stats.Counter
	bytesDown *stats.Counter
}

func newRootComplex(name string, eq *sim.EventQueue, reg *stats.Registry, cfg Config, pool *tlpPool) *RootComplex {
	rc := &RootComplex{name: name, eq: eq, cfg: cfg, pool: pool,
		upPipe:   newPipe(eq, name+".uppipe", cfg.RCProcII, cfg.RCLatency),
		downPipe: newPipe(eq, name+".downpipe", cfg.RCProcII, cfg.RCLatency)}
	rc.upPort = mem.NewRequestPort(name+".up", rc)
	rc.hostPort = mem.NewResponsePort(name+".host", rc)
	rc.memQ = mem.NewPacketQueue(name+".memq", eq, func(p *mem.Packet) bool {
		return rc.upPort.SendTimingReq(p)
	})
	rc.respQ = mem.NewPacketQueue(name+".respq", eq, func(p *mem.Packet) bool {
		return rc.hostPort.SendTimingResp(p)
	})
	g := reg.Group(name)
	rc.tlpsUp = g.Counter("tlps_up", "TLPs received from devices")
	rc.tlpsDown = g.Counter("tlps_down", "TLPs sent toward devices")
	rc.bytesUp = g.Counter("bytes_up", "TLP bytes upstream")
	rc.bytesDown = g.Counter("bytes_down", "TLP bytes downstream")
	return rc
}

// UpstreamPort is the request port the RC drives into the host memory
// system (bind to the IOCache or memory bus).
func (rc *RootComplex) UpstreamPort() *mem.RequestPort { return rc.upPort }

// HostPort is the response port the host (membus) drives for
// CPU-initiated MMIO and DevMem-over-PCIe accesses.
func (rc *RootComplex) HostPort() *mem.ResponsePort { return rc.hostPort }

// send runs t through the RC's downstream processing pipeline and
// then onto the link toward the switch.
func (rc *RootComplex) send(t *TLP) {
	rc.tlpsDown.Inc()
	rc.bytesDown.Add(uint64(t.Bytes))
	t.stage = stageSend
	t.sendConn = rc.down
	rc.downPipe.enter(t, rc.eq.Now())
}

// deliverTLP implements receiver: upstream traffic from the switch.
func (rc *RootComplex) deliverTLP(from *conn, t *TLP) {
	rc.tlpsUp.Inc()
	rc.bytesUp.Add(uint64(t.Bytes))
	t.stage = stageRCUnwrap
	t.dlvRC = rc
	rc.upPipe.enter(t, rc.eq.Now())
}

// epState returns the cached boxed epOrigin for an endpoint index.
func (rc *RootComplex) epState(ep int) any {
	for len(rc.epStates) <= ep {
		rc.epStates = append(rc.epStates, epOrigin{ep: len(rc.epStates)})
	}
	return rc.epStates[ep]
}

// unwrap issues the TLP's payload into the host memory system once it
// has left the RC's processing pipeline, and retires the TLP.
func (rc *RootComplex) unwrap(t *TLP) {
	t.dlvFrom.release(t) // TLP has left the RC's rx buffer
	switch t.Kind {
	case MemRd, MemWr:
		t.Pkt.PushState(rc.epState(t.SrcEP))
		rc.memQ.Schedule(t.Pkt, rc.eq.Now())
	case Cpl:
		// Completion for a host-initiated request.
		rc.respQ.Schedule(t.Pkt, rc.eq.Now())
	}
	rc.pool.put(t)
}

// RecvTimingResp implements mem.Requestor: the host memory system
// answered a device DMA request; wrap it as a completion (reads) or
// drop it (posted writes).
func (rc *RootComplex) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	switch st := pkt.PopState().(type) {
	case postedClone:
		pkt.Release() // clone of a posted write; sinks here
		return true
	case epOrigin:
		if pkt.Cmd == mem.WriteResp {
			// Posted upstream write: already acknowledged at the EP.
			pkt.Release()
			return true
		}
		t := rc.pool.get()
		t.Kind, t.Pkt, t.Bytes, t.DstEP = Cpl, pkt, rc.cfg.TLPHeaderBytes+pkt.Size, st.ep
		rc.send(t)
		return true
	default:
		panic(fmt.Sprintf("pcie: %s unexpected response state %T", rc.name, st))
	}
}

// RecvTimingReq implements mem.Responder: host-initiated access to
// device space.
func (rc *RootComplex) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	if rc.down.queued() >= rc.cfg.TxQueueDepth {
		rc.hostNeedRetry = true
		return false
	}

	t := rc.pool.get()
	switch {
	case pkt.Cmd == mem.ReadReq:
		t.Kind, t.Pkt, t.Bytes = MemRd, pkt, rc.cfg.TLPHeaderBytes
	case pkt.Cmd == mem.WriteReq:
		clone := cloneWrite(pkt)
		clone.PushState(postedClone{})
		t.Kind, t.Pkt, t.Bytes = MemWr, clone, rc.cfg.TLPHeaderBytes+pkt.Size
		// Posted: acknowledge the writer at the bridge.
		pkt.MakeResponse()
		rc.respQ.Schedule(pkt, rc.eq.Now()+rc.cfg.RCLatency)
	default:
		panic(fmt.Sprintf("pcie: %s: unexpected host command %v", rc.name, pkt.Cmd))
	}

	rc.send(t)
	return true
}

// RecvRetryReq implements mem.Requestor.
func (rc *RootComplex) RecvRetryReq(port *mem.RequestPort) { rc.memQ.RetryReceived() }

// RecvRetryResp implements mem.Responder.
func (rc *RootComplex) RecvRetryResp(port *mem.ResponsePort) { rc.respQ.RetryReceived() }

// wakeHost re-opens the host port after a TX-queue-full refusal.
func (rc *RootComplex) wakeHost() {
	if !rc.hostNeedRetry {
		return
	}
	rc.hostNeedRetry = false
	rc.hostPort.SendRetryReq()
}

// cloneWrite duplicates a write request for posted forwarding. The
// payload is copied, not aliased: the original is acknowledged (and
// its lease may end) at this bridge while the clone travels on, so
// the two must not share a buffer. The clone is leased from the
// original's freelist, so it stays within the original's system.
func cloneWrite(pkt *mem.Packet) *mem.Packet {
	c := pkt.Home().NewWriteSize(pkt.Addr, pkt.Size)
	if pkt.Data != nil {
		copy(c.AllocData(), pkt.Data)
	}
	c.Vaddr = pkt.Vaddr
	c.Uncacheable = pkt.Uncacheable
	c.Issued = pkt.Issued
	return c
}

var _ mem.Requestor = (*RootComplex)(nil)
var _ mem.Responder = (*RootComplex)(nil)
var _ receiver = (*RootComplex)(nil)
