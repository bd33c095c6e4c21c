package simplemem

import (
	"bytes"
	"math"
	"testing"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func newMem(t *testing.T, cfg Config) (*sim.EventQueue, *Memory, *memtest.Requestor) {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	if cfg.Range.Size() == 0 {
		cfg.Range = mem.Range(0, 1<<20)
	}
	m := New("mem", eq, reg, cfg)
	r := memtest.NewRequestor(eq)
	mem.Bind(r.Port, m.Port())
	return eq, m, r
}

func TestReadLatency(t *testing.T) {
	eq, _, r := newMem(t, Config{Latency: 30 * sim.Nanosecond})
	r.Send(mem.NewRead(0x100, 64))
	eq.Run()
	if len(r.Done) != 1 {
		t.Fatalf("completed %d packets, want 1", len(r.Done))
	}
	if r.DoneAt[0] != 30*sim.Nanosecond {
		t.Fatalf("completed at %v, want 30ns", r.DoneAt[0])
	}
	if r.Done[0].Cmd != mem.ReadResp {
		t.Fatalf("cmd = %v", r.Done[0].Cmd)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	eq, _, r := newMem(t, Config{Latency: 10 * sim.Nanosecond})
	data := []byte{0xde, 0xad, 0xbe, 0xef}
	r.Send(mem.NewWrite(0x200, data))
	rd := mem.NewRead(0x200, 4)
	r.SendAt(rd, 100*sim.Nanosecond)
	eq.Run()
	if len(r.Done) != 2 {
		t.Fatalf("completed %d packets", len(r.Done))
	}
	if !bytes.Equal(rd.Data, data) {
		t.Fatalf("read back %v, want %v", rd.Data, data)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	// 1 GB/s = 1 byte/ns; a 1000-byte packet occupies 1000 ns.
	eq, _, r := newMem(t, Config{Latency: 0, BandwidthGBps: 1})
	r.Send(mem.NewRead(0, 1000))
	r.Send(mem.NewRead(1000, 1000))
	r.Send(mem.NewRead(2000, 1000))
	eq.Run()
	if len(r.Done) != 3 {
		t.Fatalf("completed %d packets", len(r.Done))
	}
	// First completes at 1000ns; the others serialize behind it.
	if r.DoneAt[0] != 1000*sim.Nanosecond {
		t.Fatalf("first at %v", r.DoneAt[0])
	}
	if r.DoneAt[2] < 3000*sim.Nanosecond {
		t.Fatalf("third at %v, want >= 3000ns (bandwidth limit)", r.DoneAt[2])
	}
}

func TestUnlimitedBandwidth(t *testing.T) {
	eq, _, r := newMem(t, Config{Latency: 5 * sim.Nanosecond})
	for i := 0; i < 4; i++ {
		r.Send(mem.NewRead(uint64(i)*64, 64))
	}
	eq.Run()
	for _, at := range r.DoneAt {
		if at != 5*sim.Nanosecond {
			t.Fatalf("with no bandwidth limit all complete at 5ns, got %v", at)
		}
	}
}

func TestFunctionalBackdoor(t *testing.T) {
	eq, m, r := newMem(t, Config{Latency: sim.Nanosecond, Range: mem.Range(0x4000, 0x1000)})
	m.WriteFunctional(0x4100, []byte{1, 2, 3})
	rd := mem.NewRead(0x4100, 3)
	r.Send(rd)
	eq.Run()
	if !bytes.Equal(rd.Data, []byte{1, 2, 3}) {
		t.Fatalf("timing read saw %v", rd.Data)
	}
	got := make([]byte, 3)
	m.ReadFunctional(0x4100, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("functional read saw %v", got)
	}
}

func TestStatsCounted(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	m := New("mem", eq, reg, Config{Latency: sim.Nanosecond, Range: mem.Range(0, 1<<16)})
	r := memtest.NewRequestor(eq)
	mem.Bind(r.Port, m.Port())
	r.Send(mem.NewRead(0, 64))
	r.Send(mem.NewWrite(64, make([]byte, 32)))
	eq.Run()
	if got := reg.Lookup("mem.reads").Value(); got != 1 {
		t.Fatalf("reads = %v", got)
	}
	if got := reg.Lookup("mem.bytes_written").Value(); got != 32 {
		t.Fatalf("bytes_written = %v", got)
	}
}

func TestBackpressuredResponse(t *testing.T) {
	eq, _, r := newMem(t, Config{Latency: sim.Nanosecond})
	r.RefuseResponses = true
	r.Send(mem.NewRead(0, 64))
	eq.Run()
	if len(r.Done) != 0 {
		t.Fatal("response should be stalled")
	}
	r.ReleaseResponses()
	eq.Run()
	if len(r.Done) != 1 {
		t.Fatal("response should complete after release")
	}
}

func TestAuditReportsUndrainedMemory(t *testing.T) {
	eq, m, r := newMem(t, Config{Latency: 30 * sim.Nanosecond, BandwidthGBps: 1})
	r.RefuseResponses = true
	r.Send(mem.NewRead(0x100, 64))
	r.Send(mem.NewRead(0x140, 64)) // refused while the first serializes
	var busy error
	eq.ScheduleAfter(func() { busy = m.Audit() }, 10*sim.Nanosecond)
	eq.Run()
	if busy == nil || busy.Error() != "mem: retry owed true, retry event pending true\nmem.respq: 1 packets queued, blocked false" {
		t.Fatalf("busy memory audit = %v", busy)
	}
	if err := m.Audit(); err == nil || err.Error() != "mem.respq: 2 packets queued, blocked true" {
		t.Fatalf("blocked memory audit = %v", err)
	}
	r.ReleaseResponses()
	eq.Run()
	if err := m.Audit(); err != nil {
		t.Fatalf("drained memory audit = %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	r := mem.Range(0, 1<<20)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Range: r}, ""},
		{Config{Range: r, Latency: 30 * sim.Nanosecond, BandwidthGBps: 64}, ""},
		{Config{}, "Range [0x0,0x0) is empty"},
		{Config{Range: mem.AddrRange{Start: 0x2000, End: 0x1000}}, "Range [0x2000,0x1000) is empty"},
		{Config{Range: r, BandwidthGBps: -1}, "BandwidthGBps -1 is negative"},
		{Config{Range: r, BandwidthGBps: math.NaN()}, "BandwidthGBps is NaN"},
	} {
		err := c.cfg.Validate()
		if (c.want == "") != (err == nil) || (err != nil && err.Error() != c.want) {
			t.Errorf("%+v: Validate = %v, want %q", c.cfg, err, c.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		if r := recover(); r != "simplemem host: BandwidthGBps -8 is negative" {
			t.Fatalf("panic = %v", r)
		}
	}()
	New("host", sim.NewEventQueue(), stats.NewRegistry(), Config{Range: mem.Range(0, 4096), BandwidthGBps: -8})
}
