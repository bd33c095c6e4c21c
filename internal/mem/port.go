package mem

import "fmt"

// Requestor is implemented by components that own RequestPorts (CPU
// side of a connection). The port that received the interaction is
// passed explicitly so one component can own many ports.
type Requestor interface {
	// RecvTimingResp delivers a response. Returning false tells the
	// responder the requester is busy; the requester must later call
	// RequestPort.SendRetryResp to re-open the channel.
	RecvTimingResp(port *RequestPort, pkt *Packet) bool
	// RecvRetryReq signals that a previously refused request may be
	// resent now.
	RecvRetryReq(port *RequestPort)
}

// Responder is implemented by components that own ResponsePorts
// (memory side of a connection).
type Responder interface {
	// RecvTimingReq delivers a request. Returning false tells the
	// requester the responder is busy; the responder must later call
	// ResponsePort.SendRetryReq to re-open the channel.
	RecvTimingReq(port *ResponsePort, pkt *Packet) bool
	// RecvRetryResp signals that a previously refused response may be
	// resent now.
	RecvRetryResp(port *ResponsePort)
}

// RequestPort is the initiating end of a connection.
type RequestPort struct {
	name  string
	owner Requestor
	peer  *ResponsePort
}

// ResponsePort is the serving end of a connection.
type ResponsePort struct {
	name  string
	owner Responder
	peer  *RequestPort
}

// NewRequestPort creates an unbound request port.
func NewRequestPort(name string, owner Requestor) *RequestPort {
	return &RequestPort{name: name, owner: owner}
}

// NewResponsePort creates an unbound response port.
func NewResponsePort(name string, owner Responder) *ResponsePort {
	return &ResponsePort{name: name, owner: owner}
}

// Bind connects a request port to a response port. Both must be
// unbound.
func Bind(rq *RequestPort, rs *ResponsePort) {
	if rq.peer != nil || rs.peer != nil {
		panic(fmt.Sprintf("mem: rebinding port %q<->%q", rq.name, rs.name))
	}
	rq.peer = rs
	rs.peer = rq
}

// Name returns the port's diagnostic name.
func (p *RequestPort) Name() string { return p.name }

// Peer returns the bound response port, or nil.
func (p *RequestPort) Peer() *ResponsePort { return p.peer }

// SendTimingReq offers a request to the peer responder. A false return
// means "busy": the owner must hold the packet and wait for
// RecvRetryReq before trying again (it may not send other requests on
// this port in between, matching gem5 semantics).
func (p *RequestPort) SendTimingReq(pkt *Packet) bool {
	if p.peer == nil {
		panic(fmt.Sprintf("mem: SendTimingReq on unbound port %q", p.name))
	}
	return p.peer.owner.RecvTimingReq(p.peer, pkt)
}

// SendRetryResp tells the peer responder that the requester can accept
// a response again after refusing one.
func (p *RequestPort) SendRetryResp() {
	if p.peer == nil {
		panic(fmt.Sprintf("mem: SendRetryResp on unbound port %q", p.name))
	}
	p.peer.owner.RecvRetryResp(p.peer)
}

// Name returns the port's diagnostic name.
func (p *ResponsePort) Name() string { return p.name }

// Peer returns the bound request port, or nil.
func (p *ResponsePort) Peer() *RequestPort { return p.peer }

// SendTimingResp offers a response to the peer requester. A false
// return means the requester is busy; the owner must hold the packet
// and wait for RecvRetryResp.
func (p *ResponsePort) SendTimingResp(pkt *Packet) bool {
	if p.peer == nil {
		panic(fmt.Sprintf("mem: SendTimingResp on unbound port %q", p.name))
	}
	return p.peer.owner.RecvTimingResp(p.peer, pkt)
}

// SendRetryReq tells the peer requester that the responder can accept
// a request again after refusing one.
func (p *ResponsePort) SendRetryReq() {
	if p.peer == nil {
		panic(fmt.Sprintf("mem: SendRetryReq on unbound port %q", p.name))
	}
	p.peer.owner.RecvRetryReq(p.peer)
}

// Functional is the debug/driver backdoor implemented by memories and
// memory-like components: contents are read or written instantly with
// no timing effects. The kernel driver uses it to build page tables and
// to stage DMA buffers, and tests use it to verify end-to-end data.
type Functional interface {
	ReadFunctional(addr uint64, buf []byte)
	WriteFunctional(addr uint64, data []byte)
}
