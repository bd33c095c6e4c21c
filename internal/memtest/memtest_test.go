package memtest

import (
	"testing"

	"accesys/internal/mem"
	"accesys/internal/sim"
)

// harness wires a Requestor straight into an EchoResponder.
func harness(t *testing.T, latency sim.Tick) (*sim.EventQueue, *Requestor, *EchoResponder) {
	t.Helper()
	eq := sim.NewEventQueue()
	req := NewRequestor(eq)
	resp := NewEchoResponder(eq, 0x1000, 0x1000, latency)
	mem.Bind(req.Port, resp.Port)
	return eq, req, resp
}

func TestWriteReadRoundtrip(t *testing.T) {
	eq, req, resp := harness(t, 10*sim.Nanosecond)

	req.Send(mem.NewWrite(0x1000, []byte{0xaa, 0xbb, 0xcc, 0xdd}))
	eq.Run()
	if len(req.Done) != 1 || req.Done[0].Cmd != mem.WriteResp {
		t.Fatalf("write did not complete: %v", req.Done)
	}

	rd := mem.NewRead(0x1000, 4)
	req.Send(rd)
	eq.Run()
	if len(req.Done) != 2 {
		t.Fatalf("read did not complete: %d done", len(req.Done))
	}
	want := []byte{0xaa, 0xbb, 0xcc, 0xdd}
	for i, b := range want {
		if rd.Data[i] != b {
			t.Fatalf("readback[%d] = %#x, want %#x", i, rd.Data[i], b)
		}
	}
	if len(resp.Requests) != 2 {
		t.Fatalf("responder saw %d requests, want 2", len(resp.Requests))
	}
}

func TestResponseLatencyAndOrder(t *testing.T) {
	const lat = 25 * sim.Nanosecond
	eq, req, _ := harness(t, lat)

	first := mem.NewWriteSize(0x1000, 64)
	second := mem.NewWriteSize(0x1040, 64)
	req.Send(first)
	req.SendAt(second, 5*sim.Nanosecond)
	eq.Run()

	if len(req.Done) != 2 {
		t.Fatalf("%d completions, want 2", len(req.Done))
	}
	if req.Done[0] != first || req.Done[1] != second {
		t.Fatal("completions out of injection order")
	}
	if req.DoneAt[0] != lat {
		t.Fatalf("first completion at %v, want %v", req.DoneAt[0], lat)
	}
	if req.DoneAt[1] != 5*sim.Nanosecond+lat {
		t.Fatalf("second completion at %v, want %v", req.DoneAt[1], 5*sim.Nanosecond+lat)
	}
}

func TestRequestorBackpressure(t *testing.T) {
	eq, req, _ := harness(t, sim.Nanosecond)
	req.RefuseResponses = true

	req.Send(mem.NewWriteSize(0x1000, 16))
	eq.Run()
	if len(req.Done) != 0 {
		t.Fatal("response delivered despite refusal")
	}

	// Lifting backpressure retries the refused response.
	req.ReleaseResponses()
	eq.Run()
	if len(req.Done) != 1 {
		t.Fatalf("release did not deliver the response: %d done", len(req.Done))
	}
}

func TestResponderBackpressureQueuesSends(t *testing.T) {
	eq, req, resp := harness(t, sim.Nanosecond)
	resp.RefuseRequests = true

	req.Send(mem.NewWriteSize(0x1000, 16))
	req.Send(mem.NewWriteSize(0x1010, 16))
	eq.Run()
	if len(resp.Requests) != 0 {
		t.Fatal("responder accepted requests while refusing")
	}
	if req.Pending() != 2 {
		t.Fatalf("requestor should hold 2 queued packets, has %d", req.Pending())
	}

	resp.ReleaseRequests()
	eq.Run()
	if len(resp.Requests) != 2 || len(req.Done) != 2 {
		t.Fatalf("release did not drain: %d accepted, %d done", len(resp.Requests), len(req.Done))
	}
	if req.Pending() != 0 {
		t.Fatalf("requestor still holds %d packets", req.Pending())
	}
}

func TestOnDoneCallback(t *testing.T) {
	eq, req, _ := harness(t, sim.Nanosecond)
	var calls int
	req.OnDone = func(p *mem.Packet) {
		if p.Cmd != mem.WriteResp {
			t.Errorf("OnDone got %v, want a write response", p)
		}
		calls++
	}
	req.Send(mem.NewWriteSize(0x1000, 8))
	req.Send(mem.NewWriteSize(0x1008, 8))
	eq.Run()
	if calls != 2 {
		t.Fatalf("OnDone ran %d times, want 2", calls)
	}
}
