// Package mem defines the transaction-level protocol that AcceSys
// components speak: memory packets, gem5-style timing ports with the
// retry/backpressure protocol, and address ranges/maps for routing.
package mem

import (
	"fmt"

	"accesys/internal/sim"
)

// Cmd enumerates packet commands.
type Cmd uint8

// Packet commands. Requests and their responses are paired.
const (
	CmdInvalid Cmd = iota
	ReadReq
	ReadResp
	WriteReq
	WriteResp
)

// String implements fmt.Stringer.
func (c Cmd) String() string {
	switch c {
	case ReadReq:
		return "ReadReq"
	case ReadResp:
		return "ReadResp"
	case WriteReq:
		return "WriteReq"
	case WriteResp:
		return "WriteResp"
	default:
		return "Invalid"
	}
}

// IsRead reports whether the command moves data toward the requester.
func (c Cmd) IsRead() bool { return c == ReadReq || c == ReadResp }

// IsWrite reports whether the command moves data toward memory.
func (c Cmd) IsWrite() bool { return c == WriteReq || c == WriteResp }

// IsRequest reports whether the command is a request.
func (c Cmd) IsRequest() bool { return c == ReadReq || c == WriteReq }

// ResponseFor returns the response command matching a request.
func (c Cmd) ResponseFor() Cmd {
	switch c {
	case ReadReq:
		return ReadResp
	case WriteReq:
		return WriteResp
	default:
		panic(fmt.Sprintf("mem: no response for %v", c))
	}
}

// Packet is one memory transaction travelling through the system. A
// request packet is turned into its own response in place (MakeResponse)
// and routed back along the port stack that intermediate components
// pushed on the way in, exactly as gem5 crossbars do.
type Packet struct {
	ID   uint64
	Cmd  Cmd
	Addr uint64 // address in the requester's current address space
	Size int    // bytes

	// Data carries the payload for functional correctness. It may be
	// nil for timing-only traffic. For reads the responder fills it.
	Data []byte

	// Vaddr preserves the device-virtual address when an SMMU has
	// rewritten Addr to a physical address.
	Vaddr uint64

	// Issued is the tick the original requester sent the packet; used
	// for end-to-end latency statistics.
	Issued sim.Tick

	// Uncacheable requests bypass cache allocation (DM access method).
	Uncacheable bool

	// NoPayload marks a read whose requester reads none of the
	// response's payload: responders leave Data nil rather than
	// materialise bytes nobody reads. Only the DMA engine sets it, on
	// bursts of a timing-only transfer; cache fills, page walks and CPU
	// reads carry their data.
	NoPayload bool

	route  []*ResponsePort
	states []any

	// scratch is the packet-owned payload buffer AllocData hands out;
	// it survives Release so steady-state reads recycle one array.
	scratch  []byte
	home     *Packets // nil for unpooled packets
	ownsData bool
	released bool
}

// Packets is one system's packet freelist. It recycles Packet values,
// including their route/state stacks and scratch-buffer capacity, and
// numbers the packets it leases. A system runs on one goroutine, so the
// freelist is a plain slice and a plain counter: every component of a
// system leases from the same Packets, and no lock, atomic or sync.Pool
// sits on the lease path. Packets from two systems never mix, because
// each packet goes back to the freelist that leased it.
//
// A nil *Packets is valid and leases unpooled packets, with ID 0, that
// Release leaves to the garbage collector; the package-level NewRead,
// NewWrite and NewWriteSize use it.
type Packets struct {
	free     []*Packet
	nextID   uint64
	releases uint64
}

// NewPackets returns an empty freelist.
func NewPackets() *Packets { return &Packets{} }

// lease returns a zeroed packet. IDs count up from 1 in lease order, so
// they are unique and deterministic within one freelist; they are
// diagnostic labels only and never influence timing or routing.
func (ps *Packets) lease() *Packet {
	if ps == nil {
		return &Packet{}
	}
	var p *Packet
	if n := len(ps.free); n > 0 {
		p = ps.free[n-1]
		ps.free = ps.free[:n-1]
		p.released = false
	} else {
		p = &Packet{home: ps}
	}
	ps.nextID++
	p.ID = ps.nextID
	return p
}

// Leased reports how many packets the freelist has leased, which is
// also the ID of the latest one.
func (ps *Packets) Leased() uint64 { return ps.nextID }

// Released reports how many leased packets have been released.
func (ps *Packets) Released() uint64 { return ps.releases }

// Live reports how many leased packets are still out: zero once a run
// has drained, unless a component leaked one.
func (ps *Packets) Live() uint64 { return ps.nextID - ps.releases }

// NewRead leases a read request of the given size. The data buffer is
// allocated lazily by the responder (see AllocData).
func (ps *Packets) NewRead(addr uint64, size int) *Packet {
	p := ps.lease()
	p.Cmd = ReadReq
	p.Addr = addr
	p.Size = size
	return p
}

// NewWrite leases a write request carrying data. Size is len(data).
// The packet aliases data; it stays owned by the caller and is never
// recycled by Release.
func (ps *Packets) NewWrite(addr uint64, data []byte) *Packet {
	p := ps.lease()
	p.Cmd = WriteReq
	p.Addr = addr
	p.Size = len(data)
	p.Data = data
	return p
}

// NewWriteSize leases a timing-only write request with no payload.
func (ps *Packets) NewWriteSize(addr uint64, size int) *Packet {
	p := ps.lease()
	p.Cmd = WriteReq
	p.Addr = addr
	p.Size = size
	return p
}

// NewRead builds an unpooled read request (see Packets.NewRead).
func NewRead(addr uint64, size int) *Packet { return (*Packets)(nil).NewRead(addr, size) }

// NewWrite builds an unpooled write request carrying data (see
// Packets.NewWrite).
func NewWrite(addr uint64, data []byte) *Packet { return (*Packets)(nil).NewWrite(addr, data) }

// NewWriteSize builds an unpooled timing-only write request.
func NewWriteSize(addr uint64, size int) *Packet {
	return (*Packets)(nil).NewWriteSize(addr, size)
}

// Home returns the freelist that leased the packet, or nil for an
// unpooled packet. Components that derive a packet from another (a
// posted write's clone) lease it from the original's home.
func (p *Packet) Home() *Packets { return p.home }

// AllocData returns p.Data sized to p.Size, reusing the packet's own
// scratch buffer when it is large enough. Responders call it to
// materialize read payloads. The buffer is zeroed, packet-owned, and
// recycled on Release — safe because read payloads are never aliased
// by clones (only posted writes are cloned, and those carry
// caller-owned data).
func (p *Packet) AllocData() []byte {
	if p.Data != nil {
		return p.Data
	}
	if cap(p.scratch) >= p.Size {
		p.Data = p.scratch[:p.Size]
		clear(p.Data)
	} else {
		p.Data = make([]byte, p.Size)
	}
	p.ownsData = true
	return p.Data
}

// Release ends the packet's lease and returns it to its home
// freelist; an unpooled packet is only marked released. Lease
// discipline: the component that terminally consumes a packet releases
// it — the original requester receiving its response, or the sink of a
// posted write's acknowledged clone; everything in between only
// forwards. Data is dropped unless AllocData produced it: write
// payloads alias caller-owned buffers and must never be recycled.
// Releasing twice panics. Packets that intentionally escape (held by
// tests for assertions) may simply never be released.
func (p *Packet) Release() {
	if p.released {
		panic(fmt.Sprintf("mem: packet %d released twice", p.ID))
	}
	home := p.home
	if home == nil {
		p.released = true
		return
	}
	for i := range p.route {
		p.route[i] = nil
	}
	for i := range p.states {
		p.states[i] = nil
	}
	route, states, scratch := p.route[:0], p.states[:0], p.scratch[:0]
	if p.ownsData {
		scratch = p.Data[:0]
	}
	// Zero in place and restore the kept fields: cheaper than copying
	// in a composite literal.
	*p = Packet{}
	p.route, p.states, p.scratch = route, states, scratch
	p.home, p.released = home, true
	home.free = append(home.free, p)
	home.releases++
}

// MakeResponse converts the request into its response in place. The
// route and sender-state stacks are preserved so the response retraces
// the request path.
func (p *Packet) MakeResponse() {
	if !p.Cmd.IsRequest() {
		panic(fmt.Sprintf("mem: MakeResponse on %v packet", p.Cmd))
	}
	p.Cmd = p.Cmd.ResponseFor()
}

// IsRequest reports whether the packet currently holds a request.
func (p *Packet) IsRequest() bool { return p.Cmd.IsRequest() }

// PushRoute records the response port a request arrived on so the
// eventual response can be steered back out of it.
func (p *Packet) PushRoute(port *ResponsePort) { p.route = append(p.route, port) }

// PopRoute removes and returns the most recently pushed response port.
func (p *Packet) PopRoute() *ResponsePort {
	n := len(p.route)
	if n == 0 {
		panic(fmt.Sprintf("mem: packet %d has an empty route stack", p.ID))
	}
	port := p.route[n-1]
	p.route = p.route[:n-1]
	return port
}

// RouteDepth reports how many hops are stacked on the packet.
func (p *Packet) RouteDepth() int { return len(p.route) }

// PushState attaches requester-private context to the packet
// (gem5's senderState chain).
func (p *Packet) PushState(s any) { p.states = append(p.states, s) }

// PopState removes and returns the most recently attached context.
func (p *Packet) PopState() any {
	n := len(p.states)
	if n == 0 {
		panic(fmt.Sprintf("mem: packet %d has an empty state stack", p.ID))
	}
	s := p.states[n-1]
	p.states = p.states[:n-1]
	return s
}

// String renders a compact diagnostic form.
func (p *Packet) String() string {
	return fmt.Sprintf("[pkt %d %v addr=%#x size=%d]", p.ID, p.Cmd, p.Addr, p.Size)
}
