package mem

import (
	"testing"

	"accesys/internal/sim"
)

// allocEcho answers every request with an immediate response through
// its own packet queue, mirroring how real responders are built.
type allocEcho struct {
	port  *ResponsePort
	respQ *PacketQueue
}

func (e *allocEcho) RecvTimingReq(port *ResponsePort, pkt *Packet) bool {
	if pkt.Cmd.IsRead() {
		pkt.AllocData()
	}
	pkt.MakeResponse()
	e.respQ.Schedule(pkt, 0)
	return true
}

func (e *allocEcho) RecvRetryResp(port *ResponsePort) { e.respQ.RetryReceived() }

// allocRequestor issues reads through a packet queue and releases each
// response, the standard lease discipline.
type allocRequestor struct {
	port *RequestPort
	reqQ *PacketQueue
	done int
}

func (r *allocRequestor) RecvTimingResp(port *RequestPort, pkt *Packet) bool {
	pkt.Release()
	r.done++
	return true
}

func (r *allocRequestor) RecvRetryReq(port *RequestPort) { r.reqQ.RetryReceived() }

// TestPacketRoundTripAllocFree pins the zero-allocation steady state of
// the packet hot path: lease a read from a freelist, schedule it
// through a PacketQueue, echo it back as a response, and release it —
// all without allocating.
func TestPacketRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eq := sim.NewEventQueue()
	pkts := NewPackets()
	req := &allocRequestor{}
	req.port = NewRequestPort("t.req", req)
	req.reqQ = NewPacketQueue("t.reqq", eq, req.port.SendTimingReq)
	echo := &allocEcho{}
	echo.port = NewResponsePort("t.resp", echo)
	echo.respQ = NewPacketQueue("t.respq", eq, echo.port.SendTimingResp)
	Bind(req.port, echo.port)

	const batch = 64
	roundTrip := func() {
		for i := 0; i < batch; i++ {
			pkt := pkts.NewRead(uint64(i)*64, 64)
			req.reqQ.Schedule(pkt, eq.Now())
		}
		eq.Run()
	}

	// Warm the freelist and the queue backing arrays.
	for i := 0; i < 4; i++ {
		roundTrip()
	}

	if avg := testing.AllocsPerRun(50, roundTrip); avg != 0 {
		t.Fatalf("packet round trip allocates %.3f allocs/packet, want 0", avg/batch)
	}
	if req.done == 0 {
		t.Fatal("no responses observed")
	}
}

// BenchmarkPacketLease times one lease+release pair from a warm
// freelist, with the route and state push and pop every hop makes.
func BenchmarkPacketLease(b *testing.B) {
	pkts := NewPackets()
	port := NewResponsePort("b.resp", nil)
	pkts.NewRead(0, 64).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts.NewRead(uint64(i)*64, 64)
		p.PushRoute(port)
		p.PushState(struct{}{})
		p.PopState()
		p.PopRoute()
		p.Release()
	}
}
