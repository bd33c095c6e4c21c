package cpu

import (
	"testing"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func newCPU(t *testing.T, cfg Config, memLat sim.Tick) (*sim.EventQueue, *CPU, *memtest.EchoResponder, *stats.Registry) {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	c := New("cpu", eq, mem.NewPackets(), reg, cfg)
	m := memtest.NewEchoResponder(eq, 0, 1<<22, memLat)
	mem.Bind(c.Port(), m.Port)
	return eq, c, m, reg
}

func TestComputeOnlyOpTiming(t *testing.T) {
	eq, c, _, _ := newCPU(t, Config{}, 10*sim.Nanosecond)
	var doneAt sim.Tick
	c.Run([]Op{{Name: "spin", ComputeCycles: 1000}}, func() { doneAt = eq.Now() })
	eq.Run()
	// 1000 cycles at 1 GHz = 1000 ns.
	if doneAt != 1000*sim.Nanosecond {
		t.Fatalf("compute-only op took %v, want 1000ns", doneAt)
	}
}

func TestMemoryBoundOp(t *testing.T) {
	eq, c, _, _ := newCPU(t, Config{MLP: 1}, 100*sim.Nanosecond)
	var doneAt sim.Tick
	// 16 lines, serial (MLP=1), 100ns each: >= 1600ns.
	c.Run([]Op{{Name: "stream", ReadBytes: 1024, ComputeCycles: 1}}, func() { doneAt = eq.Now() })
	eq.Run()
	if doneAt < 1600*sim.Nanosecond {
		t.Fatalf("memory-bound op took %v, want >= 1600ns", doneAt)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	run := func(mlp int) sim.Tick {
		eq, c, _, _ := newCPU(t, Config{MLP: mlp}, 100*sim.Nanosecond)
		var doneAt sim.Tick
		c.Run([]Op{{Name: "stream", ReadBytes: 4096}}, func() { doneAt = eq.Now() })
		eq.Run()
		return doneAt
	}
	serial := run(1)
	parallel := run(8)
	if float64(serial)/float64(parallel) < 4 {
		t.Fatalf("MLP 8 should be >=4x faster: serial=%v parallel=%v", serial, parallel)
	}
}

func TestComputeMemoryOverlap(t *testing.T) {
	// Compute 10us, memory ~1.7us: total should be ~compute, not sum.
	eq, c, _, _ := newCPU(t, Config{MLP: 8}, 100*sim.Nanosecond)
	var doneAt sim.Tick
	c.Run([]Op{{Name: "both", ReadBytes: 1024, ComputeCycles: 10000}}, func() { doneAt = eq.Now() })
	eq.Run()
	if doneAt < 10*sim.Microsecond || doneAt > 11*sim.Microsecond {
		t.Fatalf("overlapped op took %v, want ~10us", doneAt)
	}
}

func TestOpsSequential(t *testing.T) {
	eq, c, _, reg := newCPU(t, Config{}, 10*sim.Nanosecond)
	var order []string
	ops := []Op{
		{Name: "a", ComputeCycles: 100},
		{Name: "b", ComputeCycles: 200},
		{Name: "c", WriteBytes: 128},
	}
	done := false
	c.Run(ops, func() {
		done = true
		order = append(order, "done")
	})
	eq.Run()
	if !done {
		t.Fatal("op stream did not finish")
	}
	if reg.Lookup("cpu.ops").Value() != 3 {
		t.Fatalf("ops = %v", reg.Lookup("cpu.ops").Value())
	}
	if reg.Lookup("cpu.op_a_ns").Value() != 100 {
		t.Fatalf("op_a_ns = %v", reg.Lookup("cpu.op_a_ns").Value())
	}
	if reg.Lookup("cpu.mem_bytes").Value() != 128 {
		t.Fatalf("mem_bytes = %v", reg.Lookup("cpu.mem_bytes").Value())
	}
}

func TestRunWhileBusyPanics(t *testing.T) {
	eq, c, _, _ := newCPU(t, Config{}, 10*sim.Nanosecond)
	c.Run([]Op{{Name: "x", ComputeCycles: 1000}}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Run while busy should panic")
		}
	}()
	c.Run([]Op{{Name: "y"}}, nil)
	eq.Run()
}

func TestEmptyOpList(t *testing.T) {
	eq, c, _, _ := newCPU(t, Config{}, 10*sim.Nanosecond)
	done := false
	c.Run(nil, func() { done = true })
	eq.Run()
	if !done {
		t.Fatal("empty op list should complete immediately")
	}
	if c.ops != nil {
		t.Fatal("CPU should be idle")
	}
}

func TestBackpressuredPort(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	c := New("cpu", eq, mem.NewPackets(), reg, Config{MLP: 4})
	m := memtest.NewEchoResponder(eq, 0, 1<<20, 20*sim.Nanosecond)
	m.RefuseRequests = true
	mem.Bind(c.Port(), m.Port)
	done := false
	c.Run([]Op{{Name: "blocked", ReadBytes: 512}}, func() { done = true })
	eq.Run()
	if done {
		t.Fatal("op should stall against a refusing memory")
	}
	if err := c.Audit(); err == nil || err.Error() != "cpu: operator 1 of 1 in progress\ncpu: 0 lines outstanding, 512 read and 0 write bytes left to issue\ncpu: port blocked" {
		t.Fatalf("stalled CPU audit = %v", err)
	}
	m.ReleaseRequests()
	eq.Run()
	if !done {
		t.Fatal("op should finish after release")
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("drained CPU audit = %v", err)
	}
}

func TestFarMemorySlower(t *testing.T) {
	near := func() sim.Tick {
		eq, c, _, _ := newCPU(t, Config{MLP: 4}, 30*sim.Nanosecond)
		var at sim.Tick
		c.Run([]Op{{Name: "n", ReadBytes: 8192, WriteBytes: 8192}}, func() { at = eq.Now() })
		eq.Run()
		return at
	}()
	far := func() sim.Tick {
		eq, c, _, _ := newCPU(t, Config{MLP: 4}, 600*sim.Nanosecond) // NUMA-like
		var at sim.Tick
		c.Run([]Op{{Name: "f", ReadBytes: 8192, WriteBytes: 8192}}, func() { at = eq.Now() })
		eq.Run()
		return at
	}()
	if float64(far)/float64(near) < 5 {
		t.Fatalf("far memory should dominate: near=%v far=%v", near, far)
	}
}
