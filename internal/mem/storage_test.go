package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"accesys/internal/sim"
)

func TestStorageReadWrite(t *testing.T) {
	s := NewStorage(1 << 20)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.Write(0x1000, data)
	got := make([]byte, 8)
	s.Read(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v, want %v", got, data)
	}
}

func TestStorageZeroFill(t *testing.T) {
	s := NewStorage(1 << 20)
	got := make([]byte, 16)
	for i := range got {
		got[i] = 0xff
	}
	s.Read(0x8000, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched storage should read as zero")
		}
	}
	if len(s.frames) != 0 {
		t.Fatal("read should not allocate frames")
	}
}

func TestStorageCrossFrame(t *testing.T) {
	s := NewStorage(1 << 20)
	data := make([]byte, 10000) // spans 3 frames
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.Write(frameSize-100, data)
	got := make([]byte, len(data))
	s.Read(frameSize-100, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-frame roundtrip failed")
	}
	if len(s.frames) != 4 {
		t.Fatalf("%d frames allocated, want 4", len(s.frames))
	}
}

func TestStorageBoundsPanic(t *testing.T) {
	s := NewStorage(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write should panic")
		}
	}()
	s.Write(4090, make([]byte, 16))
}

func TestStorageAccessPacket(t *testing.T) {
	s := NewStorage(1 << 16)
	w := NewWrite(0, []byte{9, 8, 7, 6})
	s.Access(w, 0x100)
	r := NewRead(0, 4)
	s.Access(r, 0x100)
	if !bytes.Equal(r.Data, []byte{9, 8, 7, 6}) {
		t.Fatalf("packet access roundtrip got %v", r.Data)
	}
	// Timing-only write leaves contents untouched.
	tw := NewWriteSize(0, 4)
	s.Access(tw, 0x100)
	r2 := NewRead(0, 4)
	s.Access(r2, 0x100)
	if !bytes.Equal(r2.Data, []byte{9, 8, 7, 6}) {
		t.Fatal("timing-only write must not clobber data")
	}
	// A read whose requester reads no payload gets none.
	r3 := NewRead(0, 4)
	r3.NoPayload = true
	s.Access(r3, 0x100)
	if r3.Data != nil {
		t.Fatalf("NoPayload read carries %v, want no payload", r3.Data)
	}
}

// Property: write-then-read roundtrips at arbitrary offsets/lengths.
func TestStorageRoundtripProperty(t *testing.T) {
	s := NewStorage(1 << 20)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := uint64(off) % (1<<20 - uint64(len(data)))
		s.Write(addr, data)
		got := make([]byte, len(data))
		s.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketQueueInOrder(t *testing.T) {
	eq := sim.NewEventQueue()
	var sent []*Packet
	q := NewPacketQueue("q", eq, func(p *Packet) bool {
		sent = append(sent, p)
		return true
	})
	p1, p2, p3 := NewRead(0, 8), NewRead(8, 8), NewRead(16, 8)
	q.Schedule(p1, 30)
	q.Schedule(p2, 10)
	q.Schedule(p3, 20)
	eq.Run()
	if len(sent) != 3 || sent[0] != p2 || sent[1] != p3 || sent[2] != p1 {
		t.Fatalf("send order %v, want ready-tick order", sent)
	}
	if !q.Empty() {
		t.Fatal("queue should drain")
	}
}

func TestPacketQueueBackpressure(t *testing.T) {
	eq := sim.NewEventQueue()
	accept := false
	var sent int
	q := NewPacketQueue("q", eq, func(p *Packet) bool {
		if !accept {
			return false
		}
		sent++
		return true
	})
	q.Schedule(NewRead(0, 8), 5)
	q.Schedule(NewRead(8, 8), 5)
	eq.Run()
	if sent != 0 || !q.Blocked() {
		t.Fatal("queue should be blocked after refusal")
	}
	accept = true
	q.RetryReceived()
	eq.Run()
	if sent != 2 || q.Blocked() || !q.Empty() {
		t.Fatalf("after retry: sent=%d blocked=%v", sent, q.Blocked())
	}
	// Spurious retry while unblocked is harmless.
	q.RetryReceived()
}

func TestPacketQueueNextReady(t *testing.T) {
	eq := sim.NewEventQueue()
	var sentAt sim.Tick
	q := NewPacketQueue("q", eq, func(p *Packet) bool {
		sentAt = eq.Now()
		return true
	})
	q.Schedule(NewRead(0, 8), 42)
	eq.Run()
	if sentAt != 42 || !q.Empty() {
		t.Fatalf("sent at %v (empty %v), want 42 and drained", sentAt, q.Empty())
	}
}

func TestPacketQueuePastTickClamps(t *testing.T) {
	eq := sim.NewEventQueue()
	var sentAt sim.Tick
	q := NewPacketQueue("q", eq, func(p *Packet) bool {
		sentAt = eq.Now()
		return true
	})
	eq.Schedule(func() {
		q.Schedule(NewRead(0, 8), 0) // in the past relative to now=50
	}, 50)
	eq.Run()
	if sentAt != 50 {
		t.Fatalf("sent at %v, want clamped to 50", sentAt)
	}
}
