package dma

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func newEngine(t *testing.T, cfg Config) (*sim.EventQueue, *Engine, *memtest.EchoResponder, *stats.Registry) {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	e := New("dma", eq, mem.NewPackets(), reg, cfg)
	m := memtest.NewEchoResponder(eq, 0, 1<<22, 20*sim.Nanosecond)
	mem.Bind(e.Port(), m.Port)
	return eq, e, m, reg
}

func TestReadGather(t *testing.T) {
	eq, e, m, _ := newEngine(t, Config{BurstBytes: 64})
	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i * 13)
	}
	m.Store.Write(0x1000, want)
	got := make([]byte, 1000)
	done := false
	e.Read(0, 0x1000, 1000, got, func() { done = true })
	eq.Run()
	if !done {
		t.Fatal("completion callback not fired")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gathered data mismatch")
	}
}

func TestWriteScatter(t *testing.T) {
	eq, e, m, _ := newEngine(t, Config{BurstBytes: 128})
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i ^ 0x3c)
	}
	done := false
	e.Write(0, 0x2000, 1000, data, func() { done = true })
	eq.Run()
	if !done {
		t.Fatal("write completion not fired")
	}
	got := make([]byte, 1000)
	m.Store.Read(0x2000, got)
	if !bytes.Equal(got, data) {
		t.Fatal("scattered data mismatch")
	}
}

func TestBurstSplitCount(t *testing.T) {
	eq, e, m, reg := newEngine(t, Config{BurstBytes: 256})
	e.Read(0, 0, 1024, nil, nil)
	eq.Run()
	if len(m.Requests) != 4 {
		t.Fatalf("1024B at 256B bursts should be 4 requests, got %d", len(m.Requests))
	}
	if reg.Lookup("dma.bursts").Value() != 4 {
		t.Fatalf("bursts stat = %v", reg.Lookup("dma.bursts").Value())
	}
}

func TestPageBoundarySplit(t *testing.T) {
	eq, e, m, _ := newEngine(t, Config{BurstBytes: 512, PageBytes: 4096})
	// Transfer straddles a page boundary mid-burst.
	e.Read(0, 4096-100, 512, nil, nil)
	eq.Run()
	if len(m.Requests) != 2 {
		t.Fatalf("page-crossing burst should split in 2, got %d", len(m.Requests))
	}
	if m.Requests[0].Size != 100 || m.Requests[1].Size != 412 {
		t.Fatalf("split sizes %d/%d, want 100/412", m.Requests[0].Size, m.Requests[1].Size)
	}
	for _, p := range m.Requests {
		if p.Addr%4096+uint64(p.Size) > 4096 {
			t.Fatal("burst crosses a page")
		}
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	// Refusing memory: all issued bursts stay queued in the reqQ.
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	e := New("dma", eq, mem.NewPackets(), reg, Config{BurstBytes: 256, WindowBytes: 1024, Channels: 1})
	m := memtest.NewEchoResponder(eq, 0, 1<<22, 20*sim.Nanosecond)
	m.RefuseRequests = true
	mem.Bind(e.Port(), m.Port)

	e.Read(0, 0, 1<<16, nil, nil)
	eq.Run()
	// Window 1024 / burst 256 = 4 in flight maximum.
	if got := reg.Lookup("dma.bursts").Value(); got != 4 {
		t.Fatalf("in-flight bursts = %v, want window-limited 4", got)
	}
	m.ReleaseRequests()
	eq.Run()
	if got := reg.Lookup("dma.bursts").Value(); got != 256 {
		t.Fatalf("total bursts = %v, want 256", got)
	}
}

func TestChannelsProgressIndependently(t *testing.T) {
	eq, e, _, _ := newEngine(t, Config{BurstBytes: 256, Channels: 2})
	var order []int
	e.Read(0, 0, 64<<10, nil, func() { order = append(order, 0) })
	e.Read(1, 1<<20, 256, nil, func() { order = append(order, 1) })
	eq.Run()
	if len(order) != 2 {
		t.Fatal("both transfers must complete")
	}
	// The tiny transfer on channel 1 must not wait for channel 0's
	// large transfer.
	if order[0] != 1 {
		t.Fatal("channel 1's small transfer should finish first")
	}
}

func TestSameChannelFIFO(t *testing.T) {
	eq, e, _, _ := newEngine(t, Config{BurstBytes: 256, Channels: 1})
	var order []int
	e.Read(0, 0, 4096, nil, func() { order = append(order, 0) })
	e.Read(0, 8192, 256, nil, func() { order = append(order, 1) })
	eq.Run()
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("same-channel transfers must be FIFO: %v", order)
	}
}

func TestUncacheableFlag(t *testing.T) {
	eq, e, m, _ := newEngine(t, Config{Uncacheable: true})
	e.Read(0, 0, 256, nil, nil)
	eq.Run()
	for _, p := range m.Requests {
		if !p.Uncacheable {
			t.Fatal("packets must carry the uncacheable flag")
		}
	}
}

func TestOversizeBurstPanics(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("burst > page must panic")
		}
	}()
	New("dma", eq, nil, reg, Config{BurstBytes: 8192, PageBytes: 4096})
}

func TestStats(t *testing.T) {
	eq, e, _, reg := newEngine(t, Config{BurstBytes: 256})
	e.Read(0, 0, 1024, nil, nil)
	e.Write(1, 4096, 512, nil, nil)
	eq.Run()
	if reg.Lookup("dma.bytes_read").Value() != 1024 {
		t.Fatalf("bytes_read = %v", reg.Lookup("dma.bytes_read").Value())
	}
	if reg.Lookup("dma.bytes_written").Value() != 512 {
		t.Fatalf("bytes_written = %v", reg.Lookup("dma.bytes_written").Value())
	}
	if reg.Lookup("dma.descriptors").Value() != 2 {
		t.Fatalf("descriptors = %v", reg.Lookup("dma.descriptors").Value())
	}
}

func TestStartLatencyApplied(t *testing.T) {
	eq, e, _, _ := newEngine(t, Config{BurstBytes: 256, StartLatency: 100 * sim.Nanosecond})
	var doneAt sim.Tick
	e.Read(0, 0, 64, nil, func() { doneAt = eq.Now() })
	eq.Run()
	if doneAt < 120*sim.Nanosecond {
		t.Fatalf("completion at %v, want >= start latency + memory", doneAt)
	}
}

// Audit holds an engine to the state a drained run leaves: no current
// or queued transfer, no burst queued or in flight, and every
// burst-state record back on the freelist.
func TestAuditReportsUndrainedEngine(t *testing.T) {
	eq, e, m, _ := newEngine(t, Config{BurstBytes: 64, Channels: 1})
	e.Read(0, 0, 256, nil, nil)
	e.Read(0, 256, 256, nil, nil)
	if err := e.Audit(); err == nil || !strings.Contains(err.Error(), "dma.ch0: transfer in progress true, 1 queued") {
		t.Fatalf("Audit with transfers pending = %v, want them named", err)
	}
	m.RefuseRequests = true
	eq.Run()
	if err := e.Audit(); err == nil || !strings.Contains(err.Error(), "dma.reqq: 4 bursts queued, blocked true") ||
		!strings.Contains(err.Error(), "dma: 4 bursts in flight") {
		t.Fatalf("Audit with requests refused = %v, want 4 bursts queued behind a blocked reqq", err)
	}
	m.ReleaseRequests()
	eq.Run()
	if err := e.Audit(); err != nil {
		t.Fatalf("Audit after both transfers: %v", err)
	}
	e.getBS() // a record that never returns to the freelist
	if err := e.Audit(); err == nil || !strings.Contains(err.Error(), "dma: 1 bursts in flight or their state records lost") {
		t.Fatalf("Audit with a lost record = %v, want it counted", err)
	}
}

// Audit also holds an engine to its transfer records: each current or
// queued transfer holds one, and a drained engine has all of them back.
func TestAuditCountsTransferRecords(t *testing.T) {
	eq, e, _, _ := newEngine(t, Config{BurstBytes: 64, Channels: 2})
	e.Read(0, 0, 256, nil, nil)
	e.Write(1, 4096, 128, nil, nil)
	if err := e.Audit(); err == nil || !strings.Contains(err.Error(), "dma: 2 transfers in progress or their records lost") {
		t.Fatalf("Audit with two transfers pending = %v, want their records counted", err)
	}
	eq.Run()
	if err := e.Audit(); err != nil {
		t.Fatalf("Audit after both transfers: %v", err)
	}
	e.getTransfer() // a record that never returns to the freelist
	if err := e.Audit(); err == nil || !strings.Contains(err.Error(), "dma: 1 transfers in progress or their records lost") {
		t.Fatalf("Audit with a lost record = %v, want it counted", err)
	}
}

// A transfer that a completion callback submits to its own channel
// queues behind the finishing one and reuses its record.
func TestTransferRecordsRecycled(t *testing.T) {
	eq, e, _, _ := newEngine(t, Config{BurstBytes: 64, Channels: 1})
	left := 8
	var again func()
	again = func() {
		if left--; left > 0 {
			e.Read(0, uint64(left)*4096, 256, nil, again)
		}
	}
	e.Read(0, 0, 256, nil, again)
	eq.Run()
	if left != 0 {
		t.Fatalf("%d transfers never ran", left)
	}
	if e.trMade != 2 || len(e.trFree) != 2 {
		t.Fatalf("8 chained transfers made %d records, %d back; want 2 and 2", e.trMade, len(e.trFree))
	}
}

// storeResponder answers requests from a Storage after 20 ns and
// records, for each read, whether its response carries a payload.
type storeResponder struct {
	eq       *sim.EventQueue
	port     *mem.ResponsePort
	store    *mem.Storage
	respQ    *mem.PacketQueue
	payloads []bool
}

func newStoreResponder(eq *sim.EventQueue) *storeResponder {
	s := &storeResponder{eq: eq, store: mem.NewStorage(1 << 20)}
	s.port = mem.NewResponsePort("store", s)
	s.respQ = mem.NewPacketQueue("store.respq", eq, func(p *mem.Packet) bool { return s.port.SendTimingResp(p) })
	return s
}

func (s *storeResponder) RecvTimingReq(_ *mem.ResponsePort, pkt *mem.Packet) bool {
	s.store.Access(pkt, pkt.Addr)
	if pkt.Cmd.IsRead() {
		s.payloads = append(s.payloads, pkt.Data != nil)
	}
	pkt.MakeResponse()
	s.respQ.Schedule(pkt, s.eq.Now()+20*sim.Nanosecond)
	return true
}

func (s *storeResponder) RecvRetryResp(*mem.ResponsePort) { s.respQ.RetryReceived() }

// A read into no buffer is timing-only: its bursts are marked
// NoPayload and come back without one, while a read into a buffer
// still gets every byte.
func TestTimingOnlyReadCarriesNoPayload(t *testing.T) {
	eq := sim.NewEventQueue()
	e := New("dma", eq, mem.NewPackets(), stats.NewRegistry(), Config{BurstBytes: 256})
	m := newStoreResponder(eq)
	mem.Bind(e.Port(), m.port)
	want := make([]byte, 512)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	m.store.Write(0x1000, want)

	e.Read(0, 0x1000, 512, nil, nil)
	eq.Run()
	if !slices.Equal(m.payloads, []bool{false, false}) {
		t.Fatalf("timing-only read's bursts carried payloads %v, want none", m.payloads)
	}
	m.payloads = nil
	got := make([]byte, 512)
	e.Read(0, 0x1000, 512, got, nil)
	eq.Run()
	if !slices.Equal(m.payloads, []bool{true, true}) || !bytes.Equal(got, want) {
		t.Fatalf("buffered read's bursts carried payloads %v and gathered %v, want both and %v", m.payloads, got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, ""},
		{Config{BurstBytes: 4096, PageBytes: 4096}, ""},
		{Config{Channels: -1}, "Channels -1 is not positive"},
		{Config{BurstBytes: -64}, "BurstBytes -64 is not positive"},
		{Config{WindowBytes: -1}, "WindowBytes -1 is not positive"},
		{Config{BurstBytes: 8192}, "BurstBytes 8192 exceeds PageBytes 4096"},
		{Config{BurstBytes: 512, PageBytes: 256}, "BurstBytes 512 exceeds PageBytes 256"},
	} {
		err := c.cfg.Validate()
		if (c.want == "") != (err == nil) || (err != nil && err.Error() != c.want) {
			t.Errorf("%+v: Validate = %v, want %q", c.cfg, err, c.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		if r := recover(); r != "dma hostdma: WindowBytes -8 is not positive" {
			t.Fatalf("panic = %v", r)
		}
	}()
	New("hostdma", sim.NewEventQueue(), nil, stats.NewRegistry(), Config{WindowBytes: -8})
}
