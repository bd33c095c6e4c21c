package mem

import (
	"testing"
	"testing/quick"
)

func TestCmdProperties(t *testing.T) {
	cases := []struct {
		cmd                  Cmd
		read, write, request bool
	}{
		{ReadReq, true, false, true},
		{ReadResp, true, false, false},
		{WriteReq, false, true, true},
		{WriteResp, false, true, false},
	}
	for _, c := range cases {
		if c.cmd.IsRead() != c.read || c.cmd.IsWrite() != c.write || c.cmd.IsRequest() != c.request {
			t.Errorf("%v: property mismatch", c.cmd)
		}
	}
	if ReadReq.ResponseFor() != ReadResp || WriteReq.ResponseFor() != WriteResp {
		t.Fatal("ResponseFor mismatch")
	}
}

func TestPacketLifecycle(t *testing.T) {
	pkts := NewPackets()
	p := pkts.NewRead(0x1000, 64)
	if !p.IsRequest() || p.Cmd != ReadReq || p.Size != 64 {
		t.Fatalf("unexpected read packet: %v", p)
	}
	p.MakeResponse()
	if p.Cmd != ReadResp {
		t.Fatalf("MakeResponse produced %v", p.Cmd)
	}

	w := pkts.NewWrite(0x2000, make([]byte, 32))
	if w.Size != 32 || w.Cmd != WriteReq {
		t.Fatalf("unexpected write packet: %v", w)
	}
	if w.ID == p.ID {
		t.Fatal("packet IDs must be unique")
	}
}

func TestMakeResponseTwicePanics(t *testing.T) {
	p := NewRead(0, 8)
	p.MakeResponse()
	defer func() {
		if recover() == nil {
			t.Fatal("MakeResponse on a response should panic")
		}
	}()
	p.MakeResponse()
}

type stubResponder struct {
	port    *ResponsePort
	accept  bool
	got     []*Packet
	retries int
}

func (s *stubResponder) RecvTimingReq(port *ResponsePort, pkt *Packet) bool {
	if !s.accept {
		return false
	}
	s.got = append(s.got, pkt)
	return true
}
func (s *stubResponder) RecvRetryResp(port *ResponsePort) { s.retries++ }

type stubRequestor struct {
	port    *RequestPort
	accept  bool
	got     []*Packet
	retries int
}

func (s *stubRequestor) RecvTimingResp(port *RequestPort, pkt *Packet) bool {
	if !s.accept {
		return false
	}
	s.got = append(s.got, pkt)
	return true
}
func (s *stubRequestor) RecvRetryReq(port *RequestPort) { s.retries++ }

func TestPortProtocol(t *testing.T) {
	rq := &stubRequestor{accept: true}
	rs := &stubResponder{accept: true}
	rq.port = NewRequestPort("cpu.dcache", rq)
	rs.port = NewResponsePort("membus.cpu", rs)
	Bind(rq.port, rs.port)

	if rq.port.Peer() != rs.port || rs.port.Peer() != rq.port {
		t.Fatal("Bind did not link the ports")
	}

	pkt := NewRead(0x40, 64)
	if !rq.port.SendTimingReq(pkt) {
		t.Fatal("accepting responder refused request")
	}
	if len(rs.got) != 1 || rs.got[0] != pkt {
		t.Fatal("responder did not receive the packet")
	}

	pkt.MakeResponse()
	if !rs.port.SendTimingResp(pkt) {
		t.Fatal("accepting requester refused response")
	}
	if len(rq.got) != 1 {
		t.Fatal("requester did not receive the response")
	}
}

func TestPortBackpressureAndRetry(t *testing.T) {
	rq := &stubRequestor{accept: false}
	rs := &stubResponder{accept: false}
	rq.port = NewRequestPort("a", rq)
	rs.port = NewResponsePort("b", rs)
	Bind(rq.port, rs.port)

	pkt := NewRead(0, 64)
	if rq.port.SendTimingReq(pkt) {
		t.Fatal("busy responder accepted request")
	}
	rs.port.SendRetryReq()
	if rq.retries != 1 {
		t.Fatal("requester did not observe retry-req")
	}

	pkt.MakeResponse()
	if rs.port.SendTimingResp(pkt) {
		t.Fatal("busy requester accepted response")
	}
	rq.port.SendRetryResp()
	if rs.retries != 1 {
		t.Fatal("responder did not observe retry-resp")
	}
}

func TestRebindPanics(t *testing.T) {
	rq := &stubRequestor{}
	rs := &stubResponder{}
	p1 := NewRequestPort("p1", rq)
	p2 := NewResponsePort("p2", rs)
	Bind(p1, p2)
	p3 := NewResponsePort("p3", rs)
	defer func() {
		if recover() == nil {
			t.Fatal("rebinding should panic")
		}
	}()
	Bind(p1, p3)
}

func TestUnboundSendPanics(t *testing.T) {
	rq := &stubRequestor{}
	p := NewRequestPort("orphan", rq)
	defer func() {
		if recover() == nil {
			t.Fatal("send on unbound port should panic")
		}
	}()
	p.SendTimingReq(NewRead(0, 8))
}

func TestRouteStack(t *testing.T) {
	rs := &stubResponder{}
	a := NewResponsePort("a", rs)
	b := NewResponsePort("b", rs)
	p := NewRead(0, 64)
	p.PushRoute(a)
	p.PushRoute(b)
	if p.RouteDepth() != 2 {
		t.Fatalf("RouteDepth = %d", p.RouteDepth())
	}
	if p.PopRoute() != b || p.PopRoute() != a {
		t.Fatal("route stack is not LIFO")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PopRoute on empty stack should panic")
		}
	}()
	p.PopRoute()
}

func TestStateStack(t *testing.T) {
	p := NewRead(0, 64)
	type myState struct{ tag int }
	p.PushState(&myState{tag: 1})
	p.PushState(&myState{tag: 2})
	if s := p.PopState().(*myState); s.tag != 2 {
		t.Fatalf("PopState tag = %d, want 2", s.tag)
	}
	if s := p.PopState().(*myState); s.tag != 1 {
		t.Fatalf("PopState tag = %d, want 1", s.tag)
	}
}

func TestAddrRange(t *testing.T) {
	r := Range(0x1000, 0x1000)
	if r.Size() != 0x1000 {
		t.Fatalf("Size = %#x", r.Size())
	}
	if !r.Contains(0x1000) || !r.Contains(0x1fff) || r.Contains(0x2000) || r.Contains(0xfff) {
		t.Fatal("Contains boundary behaviour wrong")
	}
	if r.Offset(0x1800) != 0x800 {
		t.Fatalf("Offset = %#x", r.Offset(0x1800))
	}
	if !r.Overlaps(Range(0x1fff, 2)) || r.Overlaps(Range(0x2000, 16)) {
		t.Fatal("Overlaps boundary behaviour wrong")
	}
}

func TestAddrMap(t *testing.T) {
	var m AddrMap
	m.Add(Range(0x0000, 0x1000), 0)
	m.Add(Range(0x4000, 0x1000), 2)
	m.Add(Range(0x1000, 0x1000), 1)

	cases := []struct {
		addr   uint64
		target int
		ok     bool
	}{
		{0x0, 0, true},
		{0xfff, 0, true},
		{0x1000, 1, true},
		{0x4fff, 2, true},
		{0x2000, 0, false},
		{0x5000, 0, false},
	}
	for _, c := range cases {
		got, ok := m.Find(c.addr)
		if ok != c.ok || (ok && got != c.target) {
			t.Errorf("Find(%#x) = (%d,%v), want (%d,%v)", c.addr, got, ok, c.target, c.ok)
		}
	}

	ranges := m.Ranges()
	if len(ranges) != 3 || ranges[0].Start != 0 || ranges[2].Start != 0x4000 {
		t.Fatalf("Ranges = %v", ranges)
	}
}

func TestAddrMapOverlapPanics(t *testing.T) {
	var m AddrMap
	m.Add(Range(0, 0x1000), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Add should panic")
		}
	}()
	m.Add(Range(0x800, 0x1000), 1)
}

// Property: for any partition of an address space into equal chunks,
// every address maps back to its chunk.
func TestAddrMapPartitionProperty(t *testing.T) {
	f := func(chunkExp uint8, probe uint32) bool {
		chunk := uint64(1) << (8 + chunkExp%8) // 256B..32KB
		var m AddrMap
		n := uint64(16)
		for i := uint64(0); i < n; i++ {
			m.Add(Range(i*chunk, chunk), int(i))
		}
		addr := uint64(probe) % (n * chunk)
		got, ok := m.Find(addr)
		return ok && uint64(got) == addr/chunk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlignHelpers(t *testing.T) {
	if AlignDown(0x1234, 0x100) != 0x1200 {
		t.Fatal("AlignDown wrong")
	}
	if AlignUp(0x1234, 0x100) != 0x1300 {
		t.Fatal("AlignUp wrong")
	}
	if AlignUp(0x1200, 0x100) != 0x1200 {
		t.Fatal("AlignUp should be identity on aligned values")
	}
	if !IsPow2(64) || IsPow2(0) || IsPow2(36) {
		t.Fatal("IsPow2 wrong")
	}
	if Log2(1) != 0 || Log2(64) != 6 || Log2(65) != 6 {
		t.Fatal("Log2 wrong")
	}
}
