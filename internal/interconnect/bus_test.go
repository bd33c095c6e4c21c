package interconnect

import (
	"bytes"
	"strings"
	"testing"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// rig wires two requestors and two echo responders around one bus.
type rig struct {
	eq       *sim.EventQueue
	bus      *Bus
	req0     *memtest.Requestor
	req1     *memtest.Requestor
	mem0     *memtest.EchoResponder
	mem1     *memtest.EchoResponder
	registry *stats.Registry
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	b := New("membus", eq, reg, cfg)

	r0 := memtest.NewRequestor(eq)
	r1 := memtest.NewRequestor(eq)
	mem.Bind(r0.Port, b.AddRequestorPort("cpu"))
	mem.Bind(r1.Port, b.AddRequestorPort("io"))

	m0 := memtest.NewEchoResponder(eq, 0, 1<<16, 10*sim.Nanosecond)
	m1 := memtest.NewEchoResponder(eq, 1<<16, 1<<16, 10*sim.Nanosecond)
	mem.Bind(b.AddResponderPort("mem0", mem.Range(0, 1<<16)), m0.Port)
	mem.Bind(b.AddResponderPort("mem1", mem.Range(1<<16, 1<<16)), m1.Port)

	return &rig{eq: eq, bus: b, req0: r0, req1: r1, mem0: m0, mem1: m1, registry: reg}
}

func TestBusRoutesByAddress(t *testing.T) {
	rg := newRig(t, Config{Latency: 2 * sim.Nanosecond})
	rg.req0.Send(mem.NewRead(0x100, 64))   // -> mem0
	rg.req0.Send(mem.NewRead(0x10100, 64)) // -> mem1
	rg.eq.Run()
	if len(rg.mem0.Requests) != 1 || len(rg.mem1.Requests) != 1 {
		t.Fatalf("routing wrong: mem0=%d mem1=%d", len(rg.mem0.Requests), len(rg.mem1.Requests))
	}
	if len(rg.req0.Done) != 2 {
		t.Fatalf("responses lost: %d", len(rg.req0.Done))
	}
}

func TestBusLatency(t *testing.T) {
	rg := newRig(t, Config{Latency: 2 * sim.Nanosecond})
	rg.req0.Send(mem.NewRead(0x0, 64))
	rg.eq.Run()
	// 2ns bus in + 10ns memory + 2ns bus out = 14ns.
	if rg.req0.DoneAt[0] != 14*sim.Nanosecond {
		t.Fatalf("end-to-end latency %v, want 14ns", rg.req0.DoneAt[0])
	}
}

func TestBusResponseToCorrectRequestor(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond})
	a := mem.NewRead(0x0, 64)
	b := mem.NewRead(0x40, 64)
	rg.req0.Send(a)
	rg.req1.Send(b)
	rg.eq.Run()
	if len(rg.req0.Done) != 1 || rg.req0.Done[0] != a {
		t.Fatal("req0 should get exactly its own response")
	}
	if len(rg.req1.Done) != 1 || rg.req1.Done[0] != b {
		t.Fatal("req1 should get exactly its own response")
	}
	if a.RouteDepth() != 0 || b.RouteDepth() != 0 {
		t.Fatal("route stacks must be fully unwound")
	}
}

func TestBusDataIntegrity(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond})
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	rg.req0.Send(mem.NewWrite(0x80, payload))
	rd := mem.NewRead(0x80, 8)
	rg.req0.SendAt(rd, 100*sim.Nanosecond)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, payload) {
		t.Fatalf("read back %v", rd.Data)
	}
}

func TestBusBandwidthSharing(t *testing.T) {
	// 1 GB/s layer: two 1000B packets serialize in the request layer.
	rg := newRig(t, Config{Latency: 0, BandwidthGBps: 1})
	rg.req0.Send(mem.NewRead(0, 1000))
	rg.req1.Send(mem.NewRead(0x400, 1000))
	rg.eq.Run()
	// Second request's bus crossing starts after the first's 1000ns
	// serialization: completions at >= 1000+10 and >= 2000+10 ns
	// (response layer adds its own serialization).
	last := rg.req1.DoneAt[len(rg.req1.DoneAt)-1]
	if last < 3000*sim.Nanosecond {
		t.Fatalf("bandwidth sharing too fast: %v", last)
	}
}

func TestBusBackpressureRetries(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond, QueueDepth: 1})
	rg.mem0.RefuseRequests = true
	for i := 0; i < 4; i++ {
		rg.req0.Send(mem.NewRead(uint64(i)*64, 64))
	}
	rg.eq.Run()
	if len(rg.req0.Done) != 0 {
		t.Fatal("nothing should complete while memory refuses")
	}
	rg.mem0.ReleaseRequests()
	rg.eq.Run()
	if len(rg.req0.Done) != 4 {
		t.Fatalf("completed %d after release, want 4", len(rg.req0.Done))
	}
	if rg.registry.Lookup("membus.retries").Value() == 0 {
		t.Fatal("bus should have recorded retries")
	}
}

func TestBusManyOutstanding(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond})
	const n = 200
	for i := 0; i < n; i++ {
		rg.req0.Send(mem.NewRead(uint64(i%512)*64, 64))
		rg.req1.Send(mem.NewRead(1<<16+uint64(i%512)*64, 64))
	}
	rg.eq.Run()
	if len(rg.req0.Done) != n || len(rg.req1.Done) != n {
		t.Fatalf("lost packets: %d/%d", len(rg.req0.Done), len(rg.req1.Done))
	}
}

func TestBusUnroutedPanics(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond})
	defer func() {
		if recover() == nil {
			t.Fatal("unrouted address should panic")
		}
	}()
	rg.req0.Send(mem.NewRead(1<<40, 64))
	rg.eq.Run()
}

func TestBusAddRange(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond})
	// Map an extra window onto mem0's port.
	p := rg.bus.downPorts[0]
	rg.bus.AddRange(p, mem.Range(1<<20, 0x1000))
	// EchoResponder serves addr-Base; base 0 with 64KB store, so probe
	// within store bounds is required — use a write (no data echo).
	rg.req0.Send(mem.NewWriteSize(1<<20, 0)) // size 0: routing only
	defer func() { recover() }()
	rg.eq.Run()
}

// Audit holds a bus to the state a drained run leaves: no packet
// queued on, and no block on, any egress queue, and no refused port
// still waiting for its retry, in either direction.
func TestAuditReportsUndrainedBus(t *testing.T) {
	rg := newRig(t, Config{Latency: sim.Nanosecond, QueueDepth: 1})
	rg.mem0.RefuseRequests = true
	for i := 0; i < 3; i++ {
		rg.req0.Send(mem.NewRead(uint64(i)*64, 64))
	}
	rg.eq.Run()
	if err := rg.bus.Audit(); err == nil || !strings.Contains(err.Error(), "membus.reqq[0]: 1 packets queued, blocked true, 1 refused ports waiting") {
		t.Fatalf("Audit with requests refused = %v, want the blocked reqq and its waiter", err)
	}
	rg.req0.RefuseResponses = true
	rg.mem0.ReleaseRequests()
	rg.eq.Run()
	if err := rg.bus.Audit(); err == nil || !strings.Contains(err.Error(), "membus.respq[0]: 1 packets queued, blocked true") {
		t.Fatalf("Audit with responses refused = %v, want the blocked respq", err)
	}
	rg.req0.ReleaseResponses()
	rg.eq.Run()
	if err := rg.bus.Audit(); err != nil || len(rg.req0.Done) != 3 {
		t.Fatalf("Audit after %d of 3 reads: %v", len(rg.req0.Done), err)
	}
}
