package mem

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"accesys/internal/sim"
)

// leaseSequence runs a fixed lease/release pattern and returns the IDs
// handed out.
func leaseSequence(pkts *Packets) []uint64 {
	var ids []uint64
	var live []*Packet
	for i := 0; i < 100; i++ {
		p := pkts.NewRead(uint64(i)*64, 64)
		ids = append(ids, p.ID)
		live = append(live, p)
		if i%3 == 2 {
			live[0].Release()
			live = live[1:]
		}
	}
	return ids
}

func TestPacketsIDsDeterministic(t *testing.T) {
	a, b := NewPackets(), NewPackets()
	ida := leaseSequence(a)
	// Leases from another freelist must not shift the IDs.
	other := NewPackets()
	other.NewRead(0, 8)
	idb := leaseSequence(b)
	if !slices.Equal(ida, idb) {
		t.Fatalf("identical lease patterns produced different IDs:\n%v\n%v", ida, idb)
	}
	for i, id := range ida {
		if id != uint64(i+1) {
			t.Fatalf("lease %d got ID %d, want IDs counting up from 1", i, id)
		}
	}
	if a.Leased() != uint64(len(ida)) {
		t.Fatalf("Leased() = %d after %d leases", a.Leased(), len(ida))
	}
}

// Live counts leases not yet released; releasing an unpooled packet
// touches no freelist.
func TestPacketsLive(t *testing.T) {
	pkts := NewPackets()
	a, b := pkts.NewRead(0, 8), pkts.NewWriteSize(64, 8)
	pkts.NewRead(128, 8)
	NewRead(0, 8).Release()
	a.Release()
	if pkts.Leased() != 3 || pkts.Released() != 1 || pkts.Live() != 2 {
		t.Fatalf("leased/released/live = %d/%d/%d, want 3/1/2", pkts.Leased(), pkts.Released(), pkts.Live())
	}
	b.Release()
	pkts.NewRead(0, 8).Release() // reuses a freed packet: one more lease, one more release
	if pkts.Leased() != 4 || pkts.Released() != 3 || pkts.Live() != 1 {
		t.Fatalf("leased/released/live = %d/%d/%d, want 4/3/1", pkts.Leased(), pkts.Released(), pkts.Live())
	}
}

func TestPacketsReleaseTwicePanics(t *testing.T) {
	for name, p := range map[string]*Packet{
		"pooled":   NewPackets().NewRead(0, 8),
		"unpooled": NewRead(0, 8),
	} {
		t.Run(name, func(t *testing.T) {
			p.Release()
			defer func() {
				if recover() == nil {
					t.Fatal("second Release should panic")
				}
			}()
			p.Release()
		})
	}
}

func TestPacketsLiveNotReused(t *testing.T) {
	pkts := NewPackets()
	a := pkts.NewRead(0x100, 64)
	b := pkts.NewWrite(0x200, []byte{1, 2, 3})
	b.Vaddr, b.Uncacheable, b.Issued = 0x9000, true, 77
	b.PushState(struct{}{})
	a.AllocData()[0] = 0xff
	a.Release()

	c := pkts.NewRead(0x300, 16)
	if c != a {
		t.Fatal("a released packet should be reused by the next lease")
	}
	if c == b {
		t.Fatal("a live packet was handed out again")
	}
	if c.Addr != 0x300 || c.Size != 16 || c.Data != nil || c.RouteDepth() != 0 || c.ID != 3 {
		t.Fatalf("reused packet not reset: %v data=%v route=%d", c, c.Data, c.RouteDepth())
	}
	if d := c.AllocData(); len(d) != 16 || d[0] != 0 {
		t.Fatalf("reused scratch buffer not zeroed: %v", d)
	}
	// The live packet kept everything.
	if b.Addr != 0x200 || b.Size != 3 || b.Vaddr != 0x9000 || !b.Uncacheable || b.Issued != 77 ||
		len(b.Data) != 3 || b.PopState() != struct{}{} {
		t.Fatalf("live packet disturbed by reuse: %v", b)
	}
	if d := pkts.NewRead(0, 8); d == a || d == b {
		t.Fatal("an empty freelist must lease a fresh packet")
	}
}

func TestPacketsUnpooledLeftToGC(t *testing.T) {
	p := NewRead(0, 8)
	if p.Home() != nil || p.ID != 0 {
		t.Fatalf("unpooled packet has home %p, ID %d", p.Home(), p.ID)
	}
	p.Release()
	if q := NewRead(0, 8); q == p {
		t.Fatal("a released unpooled packet was handed out again")
	}
	pkts := NewPackets()
	if q := pkts.NewRead(0, 8); q == p || q.Home() != pkts {
		t.Fatal("a freelist leased an unpooled packet")
	}
}

// TestPacketsIsolatedAcrossGoroutines runs two independent systems —
// an event queue, a freelist and an echo round trip each — on their
// own goroutines, the way the sweep engine runs points. Neither ever
// leases a packet the other released; under -race any sharing would
// also be reported as a data race.
func TestPacketsIsolatedAcrossGoroutines(t *testing.T) {
	run := func(pkts *Packets, seen map[*Packet]bool) {
		eq := sim.NewEventQueue()
		req := &allocRequestor{}
		req.port = NewRequestPort("t.req", req)
		req.reqQ = NewPacketQueue("t.reqq", eq, req.port.SendTimingReq)
		echo := &allocEcho{}
		echo.port = NewResponsePort("t.resp", echo)
		echo.respQ = NewPacketQueue("t.respq", eq, echo.port.SendTimingResp)
		Bind(req.port, echo.port)
		for round := 0; round < 200; round++ {
			for i := 0; i < 16; i++ {
				p := pkts.NewRead(uint64(i)*64, 64)
				seen[p] = true
				req.reqQ.Schedule(p, eq.Now()+sim.Tick(i))
			}
			eq.Run()
		}
	}
	pa, pb := NewPackets(), NewPackets()
	seenA, seenB := map[*Packet]bool{}, map[*Packet]bool{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(pa, seenA) }()
	go func() { defer wg.Done(); run(pb, seenB) }()
	wg.Wait()
	for p := range seenA {
		if seenB[p] {
			t.Fatalf("packet %p leased by both systems", p)
		}
		if p.Home() != pa {
			t.Fatalf("packet %p leased by system A belongs to another freelist", p)
		}
	}
	for p := range seenB {
		if p.Home() != pb {
			t.Fatalf("packet %p leased by system B belongs to another freelist", p)
		}
	}
	if pa.Leased() != pb.Leased() {
		t.Fatalf("identical systems leased %d and %d packets", pa.Leased(), pb.Leased())
	}
}

// TestPacketQueueStableOrder checks Schedule against a stable sort by
// readiness tick: in-order appends, out-of-order inserts and a second
// batch scheduled from an event at tick 128, after the queue has partly
// drained (so the live part starts past the front of the backing
// array).
func TestPacketQueueStableOrder(t *testing.T) {
	f := func(first, second []uint8) bool {
		eq := sim.NewEventQueue()
		var sent []*Packet
		q := NewPacketQueue("q", eq, func(p *Packet) bool {
			sent = append(sent, p)
			return true
		})
		type item struct {
			pkt   *Packet
			ready sim.Tick
		}
		var want []item
		schedule := func(ticks []uint8) {
			for _, tk := range ticks {
				p := NewRead(0, 8)
				ready := max(sim.Tick(tk), eq.Now())
				q.Schedule(p, sim.Tick(tk))
				want = append(want, item{p, ready})
			}
		}
		schedule(first)
		eq.Schedule(func() { schedule(second) }, 128)
		eq.Run()
		slices.SortStableFunc(want, func(a, b item) int { return int(a.ready - b.ready) })
		if len(sent) != len(want) {
			return false
		}
		for i := range want {
			if sent[i] != want[i].pkt {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
