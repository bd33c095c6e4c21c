// Package memtest provides small scripted components for exercising
// timing-port protocols in tests: a Requestor that injects packets and
// records completions, and an EchoResponder that serves requests from
// backing storage after a fixed delay. They are test doubles, not
// simulation models.
package memtest

import (
	"accesys/internal/mem"
	"accesys/internal/sim"
)

// Requestor drives request packets into a component under test and
// records the responses it gets back.
type Requestor struct {
	EQ   *sim.EventQueue
	Port *mem.RequestPort

	// Done lists completed packets in completion order; DoneAt the
	// ticks they completed.
	Done   []*mem.Packet
	DoneAt []sim.Tick
	// OnDone, when non-nil, runs for every completed packet.
	OnDone func(*mem.Packet)
	// RefuseResponses makes the requestor exert backpressure; call
	// ReleaseResponses to lift it.
	RefuseResponses bool

	queue   []*mem.Packet
	blocked bool
	refused int
}

// NewRequestor builds a requestor; bind its Port to the component
// under test.
func NewRequestor(eq *sim.EventQueue) *Requestor {
	r := &Requestor{EQ: eq}
	r.Port = mem.NewRequestPort("memtest.req", r)
	return r
}

// Send injects pkt at the current tick (or queues it behind earlier
// refused packets).
func (r *Requestor) Send(pkt *mem.Packet) {
	pkt.Issued = r.EQ.Now()
	r.queue = append(r.queue, pkt)
	r.drain()
}

// SendAt schedules pkt to be injected at the given tick.
func (r *Requestor) SendAt(pkt *mem.Packet, when sim.Tick) {
	r.EQ.Schedule(func() { r.Send(pkt) }, when)
}

func (r *Requestor) drain() {
	for len(r.queue) > 0 && !r.blocked {
		if !r.Port.SendTimingReq(r.queue[0]) {
			r.blocked = true
			return
		}
		r.queue = r.queue[1:]
	}
}

// RecvTimingResp implements mem.Requestor.
func (r *Requestor) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	if r.RefuseResponses {
		r.refused++
		return false
	}
	r.Done = append(r.Done, pkt)
	r.DoneAt = append(r.DoneAt, r.EQ.Now())
	if r.OnDone != nil {
		r.OnDone(pkt)
	}
	return true
}

// RecvRetryReq implements mem.Requestor.
func (r *Requestor) RecvRetryReq(port *mem.RequestPort) {
	r.blocked = false
	r.drain()
}

// ReleaseResponses lifts backpressure and tells the peer to retry.
func (r *Requestor) ReleaseResponses() {
	r.RefuseResponses = false
	if r.refused > 0 {
		r.refused = 0
		r.Port.SendRetryResp()
	}
}

// Outstanding reports packets sent but not yet completed... it counts
// queued-but-unsent packets too.
func (r *Requestor) Pending() int { return len(r.queue) }

// Streamer reads a span of addresses back to back in fixed-size
// requests, as fast as its peer accepts them, and releases each
// response. Its reads are pooled and NoPayload, and it logs nothing, so
// a benchmark driving a component with it measures the component, not
// the harness: in steady state a read costs the streamer no allocation.
type Streamer struct {
	EQ   *sim.EventQueue
	Port *mem.RequestPort
	// Completed counts the responses received.
	Completed int

	pkts      *mem.Packets
	next, end uint64
	size      int
	pending   *mem.Packet // refused, resent on the peer's retry
}

// NewStreamer builds a streamer; bind its Port to the component under
// test.
func NewStreamer(eq *sim.EventQueue) *Streamer {
	s := &Streamer{EQ: eq, pkts: mem.NewPackets()}
	s.Port = mem.NewRequestPort("memtest.stream", s)
	return s
}

// Read starts reading [base, base+bytes) in size-byte requests.
func (s *Streamer) Read(base, bytes uint64, size int) {
	s.next, s.end, s.size = base, base+bytes, size
	s.issue()
}

func (s *Streamer) issue() {
	for s.next < s.end {
		if s.pending == nil {
			s.pending = s.pkts.NewRead(s.next, s.size)
			s.pending.NoPayload = true
			s.pending.Issued = s.EQ.Now()
		}
		if !s.Port.SendTimingReq(s.pending) {
			return
		}
		s.pending = nil
		s.next += uint64(s.size)
	}
}

// RecvTimingResp implements mem.Requestor.
func (s *Streamer) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	s.Completed++
	pkt.Release()
	return true
}

// RecvRetryReq implements mem.Requestor.
func (s *Streamer) RecvRetryReq(port *mem.RequestPort) { s.issue() }

// EchoResponder serves requests from a Storage after a fixed latency.
type EchoResponder struct {
	EQ      *sim.EventQueue
	Port    *mem.ResponsePort
	Store   *mem.Storage
	Latency sim.Tick
	Base    uint64
	// Requests records a snapshot of every accepted request in arrival
	// order. Snapshots, not the live packets: a requester under test
	// releases its packets back to the pool after the round trip, which
	// would scramble a log of live pointers.
	Requests []*mem.Packet
	// RefuseRequests exerts backpressure until ReleaseRequests.
	RefuseRequests bool

	respQ   *mem.PacketQueue
	refused bool
}

// NewEchoResponder builds a responder covering size bytes from base.
func NewEchoResponder(eq *sim.EventQueue, base, size uint64, latency sim.Tick) *EchoResponder {
	e := &EchoResponder{EQ: eq, Store: mem.NewStorage(size), Latency: latency, Base: base}
	e.Port = mem.NewResponsePort("memtest.resp", e)
	e.respQ = mem.NewPacketQueue("memtest.respq", eq, func(p *mem.Packet) bool {
		return e.Port.SendTimingResp(p)
	})
	return e
}

// RecvTimingReq implements mem.Responder.
func (e *EchoResponder) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	if e.RefuseRequests {
		e.refused = true
		return false
	}
	snap := *pkt
	if pkt.Data != nil {
		snap.Data = append([]byte(nil), pkt.Data...)
	}
	e.Requests = append(e.Requests, &snap)
	e.Store.Access(pkt, pkt.Addr-e.Base)
	pkt.MakeResponse()
	e.respQ.Schedule(pkt, e.EQ.Now()+e.Latency)
	return true
}

// RecvRetryResp implements mem.Responder.
func (e *EchoResponder) RecvRetryResp(port *mem.ResponsePort) { e.respQ.RetryReceived() }

// ReleaseRequests lifts backpressure and signals a retry.
func (e *EchoResponder) ReleaseRequests() {
	e.RefuseRequests = false
	if e.refused {
		e.refused = false
		e.Port.SendRetryReq()
	}
}

var _ mem.Requestor = (*Requestor)(nil)
var _ mem.Requestor = (*Streamer)(nil)
var _ mem.Responder = (*EchoResponder)(nil)
