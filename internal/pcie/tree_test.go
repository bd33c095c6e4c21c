package pcie

// Topology shapes: leaf math, 2-level routing in both directions, the
// latency cost of the extra hop, and construction-time validation.

import (
	"bytes"
	"testing"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func TestTopologyValidate(t *testing.T) {
	for _, c := range []struct {
		top Topology
		ok  bool
	}{
		{Topology{}, true},
		{Topology{Levels: 1}, true},
		{Topology{Levels: 2, Fanout: 1}, true},
		{Topology{Levels: 2, Fanout: 4}, true},
		{Topology{Levels: 2}, false},
		{Topology{Levels: 3, Fanout: 2}, false},
		{Topology{Levels: -1}, false},
		{Topology{Fanout: 2}, false},
	} {
		if err := c.top.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.top, err, c.ok)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	link := LinkConfig{Lanes: 4, LaneGbps: 5}
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Link: link}, ""},
		{Config{Link: link, Topology: Topology{Levels: 2, Fanout: 2}, CutThrough: true}, ""},
		{Config{}, "Link.Lanes 0 is not positive"},
		{Config{Link: LinkConfig{Lanes: -4, LaneGbps: 5}}, "Link.Lanes -4 is not positive"},
		{Config{Link: LinkConfig{Lanes: 4}}, "Link.LaneGbps 0 is not positive"},
		{Config{Link: LinkConfig{Lanes: 4, LaneGbps: -1}}, "Link.LaneGbps -1 is not positive"},
		{Config{Link: link, TLPHeaderBytes: -24}, "TLPHeaderBytes -24 is negative"},
		{Config{Link: link, RCBufBytes: -1}, "RCBufBytes -1 is negative"},
		{Config{Link: link, SwitchBufBytes: -1}, "SwitchBufBytes -1 is negative"},
		{Config{Link: link, EPBufBytes: -1}, "EPBufBytes -1 is negative"},
		{Config{Link: link, TxQueueDepth: -2}, "TxQueueDepth -2 is negative"},
		{Config{Link: link, Topology: Topology{Levels: 2}}, "2-level topology needs fanout >= 1"},
	} {
		err := c.cfg.Validate()
		if (c.want == "") != (err == nil) || (err != nil && err.Error() != c.want) {
			t.Errorf("%+v: Validate = %v, want %q", c.cfg, err, c.want)
		}
	}
}

func TestNewTreePanicsWithValidateError(t *testing.T) {
	defer func() {
		if r := recover(); r != "pcie pcie: Link.Lanes -4 is not positive" {
			t.Fatalf("panic = %v", r)
		}
	}()
	NewTree("pcie", sim.NewEventQueue(), stats.NewRegistry(), Config{Link: LinkConfig{Lanes: -4, LaneGbps: 5}},
		[]mem.AddrRange{mem.Range(0, 4096)})
}

func TestTopologyLeafMath(t *testing.T) {
	flat := Topology{}
	if flat.LeafCount(5) != 5 || flat.LeafOf(3) != 3 {
		t.Fatal("flat topology must map endpoints 1:1")
	}
	tree := Topology{Levels: 2, Fanout: 2}
	if got := tree.LeafCount(5); got != 3 {
		t.Fatalf("LeafCount(5) fanout 2 = %d, want 3", got)
	}
	for i, want := range []int{0, 0, 1, 1, 2} {
		if got := tree.LeafOf(i); got != want {
			t.Fatalf("LeafOf(%d) = %d, want %d", i, got, want)
		}
	}
}

// twoLevelFabric builds a 4-EP tree under fanout-2 leaves with echo
// devices behind every BAR and a host memory behind the RC.
func twoLevelFabric(t *testing.T) (*sim.EventQueue, *Tree, []*memtest.EchoResponder, *memtest.EchoResponder) {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	cfg := defLink()
	cfg.Topology = Topology{Levels: 2, Fanout: 2}
	bars := make([][]mem.AddrRange, 4)
	for i := range bars {
		bars[i] = []mem.AddrRange{mem.Range(uint64(0x1000_0000*(i+1)), 1<<16)}
	}
	tree := NewTree("pcie", eq, reg, cfg, bars...)
	if len(tree.Leaves) != 2 {
		t.Fatalf("leaves = %d, want 2", len(tree.Leaves))
	}
	devs := make([]*memtest.EchoResponder, 4)
	for i := range devs {
		devs[i] = memtest.NewEchoResponder(eq, bars[i][0].Start, bars[i][0].Size(), 10*sim.Nanosecond)
		mem.Bind(tree.EP(i).BusPort(), devs[i].Port)
	}
	hostMem := memtest.NewEchoResponder(eq, 0, 1<<20, 30*sim.Nanosecond)
	mem.Bind(tree.RC.UpstreamPort(), hostMem.Port)
	return eq, tree, devs, hostMem
}

func TestTwoLevelTreeRoutesBothDirections(t *testing.T) {
	eq, tree, devs, hostMem := twoLevelFabric(t)
	host := memtest.NewRequestor(eq)
	mem.Bind(host.Port, tree.RC.HostPort())

	// Downstream: a write to each EP's BAR must land on that EP only.
	for i := range devs {
		host.Send(mem.NewWrite(uint64(0x1000_0000*(i+1))+4, []byte{byte(i + 1)}))
	}
	eq.Run()
	for i, dev := range devs {
		b := make([]byte, 1)
		dev.Store.Read(4, b)
		if b[0] != byte(i+1) {
			t.Fatalf("dev%d got %d, want %d", i, b[0], i+1)
		}
	}

	// Upstream: concurrent DMA reads from all four EPs; each completion
	// must route back through the right leaf to its issuer.
	dmas := make([]*memtest.Requestor, 4)
	reads := make([]*mem.Packet, 4)
	for i := range dmas {
		dmas[i] = memtest.NewRequestor(eq)
		mem.Bind(dmas[i].Port, tree.EP(i).DevPort())
		hostMem.Store.Write(uint64(0x100*(i+1)), []byte{0xe0 + byte(i)})
		reads[i] = mem.NewRead(uint64(0x100*(i+1)), 1)
		dmas[i].Send(reads[i])
	}
	eq.Run()
	for i := range dmas {
		if len(dmas[i].Done) != 1 {
			t.Fatalf("EP%d completion lost", i)
		}
		if !bytes.Equal(reads[i].Data, []byte{0xe0 + byte(i)}) {
			t.Fatalf("EP%d completion misrouted: %v", i, reads[i].Data)
		}
	}
}

func TestTwoLevelStreamingStaysCorrect(t *testing.T) {
	// A long DMA stream through leaf switches: every request completes
	// and throughput still approaches the (shared) root link.
	eq, tree, _, hostMem := twoLevelFabric(t)
	_ = hostMem
	dma := memtest.NewRequestor(eq)
	mem.Bind(dma.Port, tree.EP(3).DevPort())
	const n = 512
	for i := 0; i < n; i++ {
		dma.Send(mem.NewRead(uint64(i*256)%(1<<20), 256))
	}
	eq.Run()
	if len(dma.Done) != n {
		t.Fatalf("completed %d of %d through the leaf", len(dma.Done), n)
	}
}

func TestTwoLevelAddsHopLatency(t *testing.T) {
	lat := func(top Topology) sim.Tick {
		eq := sim.NewEventQueue()
		reg := stats.NewRegistry()
		cfg := defLink()
		cfg.Topology = top
		tree := NewTree("pcie", eq, reg, cfg, []mem.AddrRange{mem.Range(barBase, barSize)})
		dma := memtest.NewRequestor(eq)
		mem.Bind(dma.Port, tree.EP(0).DevPort())
		hostMem := memtest.NewEchoResponder(eq, hostMemBase, hostMemSize, 50*sim.Nanosecond)
		mem.Bind(tree.RC.UpstreamPort(), hostMem.Port)
		dma.Send(mem.NewRead(0x1000, 256))
		eq.Run()
		return dma.DoneAt[0]
	}
	flat := lat(Topology{})
	deep := lat(Topology{Levels: 2, Fanout: 1})
	if deep <= flat {
		t.Fatalf("leaf hop added no latency: flat %v, 2-level %v", flat, deep)
	}
}

func TestBadTopologyPanics(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	cfg := defLink()
	cfg.Topology = Topology{Levels: 2} // fanout missing
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology should panic at construction")
		}
	}()
	NewTree("pcie", eq, reg, cfg, []mem.AddrRange{mem.Range(0, 4096)})
}
