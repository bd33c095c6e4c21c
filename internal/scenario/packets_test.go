package scenario

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"accesys/internal/core"
	"accesys/internal/driver"
	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sweep"
)

// packetTrace runs one GEMM-n on a fresh system a Step at a time and
// records, after every dispatched event, how many packets the system
// has leased. Packet IDs count up in lease order within a system, so
// two equal traces mean two equal packet-ID sequences. It reports
// failures with Errorf, so it may run on a goroutine of its own.
func packetTrace(t *testing.T, cfg core.Config, n int) []uint64 {
	t.Helper()
	sys, drv := BuildSystem(cfg)
	done := false
	drv.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n}, func(driver.Result) { done = true })
	var trace []uint64
	for sys.EQ.Step() {
		trace = append(trace, sys.Packets.Leased())
	}
	if !done || sys.Packets.Leased() == 0 {
		t.Errorf("%s: GEMM completed %v after leasing %d packets", cfg.Name, done, sys.Packets.Leased())
	}
	return trace
}

// TestSystemPacketIDsDeterministic checks that a system's packet IDs
// depend on nothing but its own simulation: a run alone and a run
// beside another system on a second goroutine (as the sweep engine's
// workers do) lease identical ID sequences. Under -race the concurrent
// pair also proves the two systems share no packet: a packet released
// by one and leased by the other would be a data race.
func TestSystemPacketIDsDeterministic(t *testing.T) {
	pcie := core.PCIe8GB()
	pcie.Accel.HostDMA.BurstBytes = 64
	devmem := core.DevMemCfg()
	const n = 128
	soloPCIe := packetTrace(t, pcie, n)
	soloDev := packetTrace(t, devmem, n)

	var pairPCIe, pairDev []uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); pairPCIe = packetTrace(t, pcie, n) }()
	go func() { defer wg.Done(); pairDev = packetTrace(t, devmem, n) }()
	wg.Wait()

	if !slices.Equal(soloPCIe, pairPCIe) {
		t.Errorf("%s: packet IDs differ between a solo and a concurrent run", pcie.Name)
	}
	if !slices.Equal(soloDev, pairDev) {
		t.Errorf("%s: packet IDs differ between a solo and a concurrent run", devmem.Name)
	}
}

// TestRunsReleaseEveryPacket checks that a drained run has released
// every packet it leased: each component that terminally consumes a
// packet (a requester taking its response, a cache taking its fill or
// writeback ack, the sink of a posted write) hands it back, so a leak
// anywhere shows up as Live() > 0. It covers single-accelerator GEMMs
// on both PCIe host memories and on device memory, and a two-member
// farm whose members share the link.
func TestRunsReleaseEveryPacket(t *testing.T) {
	check := func(t *testing.T, sys *core.System) {
		t.Helper()
		ps := sys.Packets
		if ps.Leased() == 0 || ps.Live() != 0 {
			t.Fatalf("%s: %d packets leased, %d released, %d live; want none live",
				sys.Cfg.Name, ps.Leased(), ps.Released(), ps.Live())
		}
	}
	for _, cfg := range []core.Config{core.PCIe8GB(), core.PCIe64GB(), core.DevMemCfg()} {
		for _, n := range []int{32, 128, 256} {
			t.Run(fmt.Sprintf("%s/gemm%d", cfg.Name, n), func(t *testing.T) {
				_, sys, _ := TimeGEMM(cfg, n)
				check(t, sys)
			})
		}
	}
	t.Run("farm2", func(t *testing.T) {
		cfg := core.PCIe8GB()
		cfg.Accelerators = 2
		cfg.SMMU.Bypass = true // AttachFarm's precondition
		sys := core.Build(cfg)
		runSchedules(sys, sys.AttachFarm(), []TenantJob{{N: 64, Jobs: 2}, {N: 96, Jobs: 1}}, -1)
		check(t, sys)
	})
}

// TestLeakedPacketFailsThePoint checks the packet balance every run
// ends with: a packet leased and never handed back — what dropping the
// cache's fill Release leaks on every miss — fails the point with an
// error naming the config.
func TestLeakedPacketFailsThePoint(t *testing.T) {
	cfg := core.PCIe8GB()
	point := sweep.Point{Key: cfg.Name, Run: func() sweep.Outcome {
		sys, drv := BuildSystem(cfg)
		sys.Packets.NewRead(0, 64) // leased, never released
		runSchedules(sys, []*driver.Driver{drv}, []TenantJob{{N: 32, Jobs: 1}}, -1)
		return sweep.Outcome{}
	}}
	outs := (&sweep.Engine{Jobs: 1}).Run([]sweep.Point{point})
	want := fmt.Sprintf("scenario: run under %s drained with 1 packets leased and never released", cfg.Name)
	if msg := fmt.Sprint(outs[0].Err); !strings.Contains(msg, want) {
		t.Fatalf("leaking point failed with %q, want %q", msg, want)
	}
}

// TestStuckRunNamesTheStuckLayer checks that a run drained with work
// left over also names the layers the audit finds not idle: here a
// requestor on the memory bus that refuses its response leaves the
// bus's response queue blocked.
func TestStuckRunNamesTheStuckLayer(t *testing.T) {
	sys, _ := BuildSystem(core.PCIe8GB())
	req := memtest.NewRequestor(sys.EQ)
	mem.Bind(req.Port, sys.Bus.AddRequestorPort("stuck"))
	req.RefuseResponses = true
	req.Send(mem.NewRead(sys.Cfg.HostRange().Start, 64))
	sys.Run()
	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("scenario: run under %s drained with 1 GEMMs of member 0 unfinished; layers not idle: ", sys.Cfg.Name)
		if !strings.HasPrefix(msg, want) || !strings.Contains(msg, "membus.respq[") {
			t.Fatalf("stuck run panicked with %q, want %q and the blocked membus response queue", msg, want)
		}
	}()
	checkDone(sys, "GEMMs", []int{1})
}
