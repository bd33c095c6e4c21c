package driver

import (
	"encoding/binary"
	"testing"

	"accesys/internal/accel"
	"accesys/internal/dma"
	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/smmu"
	"accesys/internal/stats"
)

// rig builds a minimal host for the driver: MMIO echo through a bus-
// less direct binding, a real SMMU (unused unless walked), and a
// MatrixFlow against flat memories. It exercises the driver's own
// logic without the full core system (covered in core's tests).
type rig struct {
	eq      *sim.EventQueue
	drv     *Driver
	mf      *accel.MatrixFlow
	hostMem *memtest.EchoResponder
	devMem  *memtest.EchoResponder
	reg     *stats.Registry
}

const (
	barBase  = 0x8000_0000
	hostSize = 64 << 20
	devBase  = 0x1_0000_0000
	devSize  = 32 << 20
	iovaBase = 0x10_0000_0000
)

type funcStore struct{ m *memtest.EchoResponder }

func (f funcStore) ReadFunctional(addr uint64, buf []byte) { f.m.Store.Read(addr-f.m.Base, buf) }
func (f funcStore) WriteFunctional(addr uint64, data []byte) {
	f.m.Store.Write(addr-f.m.Base, data)
}

func newRig(t *testing.T, dcfg Config) *rig {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	pkts := mem.NewPackets()

	hostMem := memtest.NewEchoResponder(eq, 0, hostSize, 30*sim.Nanosecond)
	devMem := memtest.NewEchoResponder(eq, devBase, devSize, 15*sim.Nanosecond)

	mf := accel.New("mf", eq, pkts, reg, accel.Config{
		BAR:        mem.Range(barBase, 1<<16),
		Functional: true,
		HostDMA:    dma.Config{BurstBytes: 256},
	})
	mem.Bind(mf.HostDMAPort(), hostMem.Port)
	mem.Bind(mf.DevDMAPort(), devMem.Port)

	// The driver's MMIO lands directly on the CSR port.
	s := smmu.New("smmu", eq, pkts, reg, smmu.Config{})

	drv := New("drv", eq, reg, Deps{
		EQ:        eq,
		Packets:   pkts,
		MMIO:      mf.CSRPort(),
		FuncHost:  funcStore{hostMem},
		FuncDev:   funcStore{devMem},
		SMMU:      s,
		Accel:     mf,
		BARBase:   barBase,
		HostRange: mem.Range(0, hostSize),
		DevRange:  mem.Range(devBase, devSize),
		IOVABase:  iovaBase,
	}, dcfg)
	return &rig{eq: eq, drv: drv, mf: mf, hostMem: hostMem, devMem: devMem, reg: reg}
}

func TestAllocatorsPageAligned(t *testing.T) {
	rg := newRig(t, Config{NoIOMMU: true})
	a := rg.drv.AllocHost(100)
	b := rg.drv.AllocHost(100)
	if a%smmu.PageBytes != 0 || b%smmu.PageBytes != 0 {
		t.Fatal("allocations must be page aligned")
	}
	if b-a != smmu.PageBytes {
		t.Fatalf("100B alloc should consume one page, got %d", b-a)
	}
	d1 := rg.drv.AllocDev(smmu.PageBytes + 1)
	d2 := rg.drv.AllocDev(8)
	if d2-d1 != 2*smmu.PageBytes {
		t.Fatal("device allocator should round to pages")
	}
	if d1 < devBase {
		t.Fatal("device allocations must come from the device range")
	}
}

func TestMapForDeviceCountsPages(t *testing.T) {
	rg := newRig(t, Config{})
	phys := rg.drv.AllocHost(3 * smmu.PageBytes)
	before := rg.drv.PagesMapped()
	iova := rg.drv.MapForDevice(phys, 3*smmu.PageBytes)
	if rg.drv.PagesMapped()-before != 3 {
		t.Fatalf("mapped %d pages, want 3", rg.drv.PagesMapped()-before)
	}
	if iova < iovaBase {
		t.Fatal("IOVAs must come from the IOVA space")
	}
	if rg.reg.Lookup("drv.pages_mapped").Value() < 3 {
		t.Fatal("pages_mapped stat missing")
	}
}

func TestNoIOMMUGEMM(t *testing.T) {
	rg := newRig(t, Config{NoIOMMU: true})
	a := []int32{1, 2, 3, 4}
	aM := make([]int32, 16*16)
	bM := make([]int32, 16*16)
	copy(aM, a)
	for i := range bM {
		bM[i] = 1
	}
	var res Result
	rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16, A: aM, B: bM}, func(r Result) { res = r })
	rg.eq.Run()
	if res.C == nil {
		t.Fatal("no result")
	}
	want := accel.MatMulRef(aM, bM, 16, 16, 16)
	for i := range want {
		if res.C[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, res.C[i], want[i])
		}
	}
	if res.PagesMapped != 0 {
		t.Fatal("NoIOMMU jobs must not map pages")
	}
}

func TestIRQLatencyApplied(t *testing.T) {
	run := func(lat sim.Tick) sim.Tick {
		rg := newRig(t, Config{NoIOMMU: true, IRQLatency: lat})
		var res Result
		rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16}, func(r Result) { res = r })
		rg.eq.Run()
		return res.Completed
	}
	fast := run(sim.Microsecond)
	slow := run(100 * sim.Microsecond)
	if slow-fast < 90*sim.Microsecond {
		t.Fatalf("IRQ latency not applied: fast=%v slow=%v", fast, slow)
	}
}

func TestMMIOWritesCounted(t *testing.T) {
	rg := newRig(t, Config{NoIOMMU: true, BurstBytes: 512})
	var done bool
	rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16}, func(Result) { done = true })
	rg.eq.Run()
	if !done {
		t.Fatal("job incomplete")
	}
	// 9 registers + burst register + doorbell = 10 writes with burst.
	if got := rg.reg.Lookup("drv.mmio_writes").Value(); got != 10 {
		t.Fatalf("mmio_writes = %v, want 10", got)
	}
	// The burst register actually landed in the CSR file.
	if rg.mf.Status() != accel.StatusDone {
		t.Fatal("accelerator should be done")
	}
}

func TestRunWhileActivePanics(t *testing.T) {
	rg := newRig(t, Config{NoIOMMU: true})
	rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second RunGEMM should panic while active")
		}
	}()
	rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16}, nil)
}

func TestBadDimsPanics(t *testing.T) {
	rg := newRig(t, Config{NoIOMMU: true})
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple-of-16 dims should panic")
		}
	}()
	rg.drv.RunGEMM(GEMMSpec{M: 17, N: 16, K: 16}, nil)
}

func TestDevMemStagingRoundtrip(t *testing.T) {
	// NoIOMMU: this minimal rig wires the host DMA path without an
	// SMMU, so the MSI address must stay physical.
	rg := newRig(t, Config{DevMemMode: true, NoIOMMU: true})
	aM := make([]int32, 16*16)
	bM := make([]int32, 16*16)
	for i := range aM {
		aM[i] = int32(i % 3)
		bM[i] = int32(i % 2)
	}
	var res Result
	rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16, A: aM, B: bM}, func(r Result) { res = r })
	rg.eq.Run()
	want := accel.MatMulRef(aM, bM, 16, 16, 16)
	for i := range want {
		if res.C[i] != want[i] {
			t.Fatalf("devmem C[%d] = %d, want %d", i, res.C[i], want[i])
		}
	}
}

func TestMSILandsAtDriverAddress(t *testing.T) {
	rg := newRig(t, Config{NoIOMMU: true})
	var done bool
	rg.drv.RunGEMM(GEMMSpec{M: 16, N: 16, K: 16}, func(Result) { done = true })
	rg.eq.Run()
	if !done {
		t.Fatal("job incomplete")
	}
	msi := make([]byte, 8)
	rg.hostMem.Store.Read(rg.drv.MSIAddr(), msi)
	if binary.LittleEndian.Uint64(msi) != 1 {
		t.Fatal("MSI write did not land at the driver's address")
	}
}
