package cache

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// rig: requestor -> cache -> echo memory.
type rig struct {
	eq    *sim.EventQueue
	c     *Cache
	req   *memtest.Requestor
	mem   *memtest.EchoResponder
	reg   *stats.Registry
	under Config
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 8 << 10 // 8 KiB
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = 2
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 2 * sim.Nanosecond
	}
	c := New("l1", eq, mem.NewPackets(), reg, cfg)
	r := memtest.NewRequestor(eq)
	m := memtest.NewEchoResponder(eq, 0, 1<<20, 50*sim.Nanosecond)
	mem.Bind(r.Port, c.CPUPort())
	mem.Bind(c.MemPort(), m.Port)
	c.SetDownstreamFunctional(struct{ mem.Functional }{funcStore{m}})
	return &rig{eq: eq, c: c, req: r, mem: m, reg: reg, under: cfg}
}

// funcStore adapts EchoResponder's storage to mem.Functional.
type funcStore struct{ m *memtest.EchoResponder }

func (f funcStore) ReadFunctional(addr uint64, buf []byte)   { f.m.Store.Read(addr, buf) }
func (f funcStore) WriteFunctional(addr uint64, data []byte) { f.m.Store.Write(addr, data) }

func TestMissThenHit(t *testing.T) {
	rg := newRig(t, Config{})
	rg.mem.Store.Write(0x100, []byte{1, 2, 3, 4})

	first := mem.NewRead(0x100, 4)
	rg.req.Send(first)
	rg.eq.Run()
	if len(rg.req.Done) != 1 {
		t.Fatal("first read lost")
	}
	missLat := rg.req.DoneAt[0]
	if !bytes.Equal(first.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("miss data %v", first.Data)
	}

	second := mem.NewRead(0x100, 4)
	rg.req.Send(second)
	start := rg.eq.Now()
	rg.eq.Run()
	hitLat := rg.eq.Now() - start
	if !bytes.Equal(second.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("hit data %v", second.Data)
	}
	if hitLat >= missLat {
		t.Fatalf("hit latency %v should beat miss latency %v", hitLat, missLat)
	}
	if rg.reg.Lookup("l1.hits").Value() != 1 || rg.reg.Lookup("l1.misses").Value() != 1 {
		t.Fatalf("hit/miss counters wrong: %v/%v",
			rg.reg.Lookup("l1.hits").Value(), rg.reg.Lookup("l1.misses").Value())
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	rg := newRig(t, Config{SizeBytes: 256, Assoc: 1, LineBytes: 64}) // 4 sets
	// Dirty a line, then evict it by touching the conflicting address.
	rg.req.Send(mem.NewWrite(0x0, []byte{0xaa, 0xbb}))
	rg.eq.Run()
	// Partial write allocates via fill; line now dirty.
	rg.req.Send(mem.NewRead(0x100, 4)) // same set (4 sets * 64B = 256B period)
	rg.eq.Run()
	rg.req.Send(mem.NewRead(0x200, 4)) // evicts one of them eventually
	rg.req.Send(mem.NewRead(0x300, 4))
	rg.eq.Run()
	if rg.reg.Lookup("l1.writebacks").Value() < 1 {
		t.Fatal("dirty eviction should write back")
	}
	got := make([]byte, 2)
	rg.mem.Store.Read(0x0, got)
	if !bytes.Equal(got, []byte{0xaa, 0xbb}) {
		t.Fatalf("writeback did not reach memory: %v", got)
	}
}

func TestReadYourWrite(t *testing.T) {
	rg := newRig(t, Config{})
	rg.req.Send(mem.NewWrite(0x40, []byte{9, 9, 9, 9}))
	rd := mem.NewRead(0x40, 4)
	rg.req.SendAt(rd, 10*sim.Microsecond)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, []byte{9, 9, 9, 9}) {
		t.Fatalf("read-your-write got %v", rd.Data)
	}
}

func TestFullLineWriteNoFetch(t *testing.T) {
	rg := newRig(t, Config{LineBytes: 64})
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	rg.req.Send(mem.NewWrite(0x400, data))
	rg.eq.Run()
	// No downstream fill should have been issued.
	if len(rg.mem.Requests) != 0 {
		t.Fatalf("full-line write fetched %d packets from memory", len(rg.mem.Requests))
	}
	rd := mem.NewRead(0x400, 64)
	rg.req.Send(rd)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, data) {
		t.Fatal("full-line write data lost")
	}
}

func TestMultiLineRequest(t *testing.T) {
	rg := newRig(t, Config{LineBytes: 64})
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	rg.mem.Store.Write(0x1000, payload)
	rd := mem.NewRead(0x1000, 256)
	rg.req.Send(rd)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, payload) {
		t.Fatal("multi-line read mismatch")
	}
	if rg.reg.Lookup("l1.misses").Value() != 4 {
		t.Fatalf("expected 4 line misses, got %v", rg.reg.Lookup("l1.misses").Value())
	}
}

func TestUnalignedCrossLine(t *testing.T) {
	rg := newRig(t, Config{LineBytes: 64})
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	rg.mem.Store.Write(60, payload) // crosses the 64B boundary
	rd := mem.NewRead(60, 8)
	rg.req.Send(rd)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, payload) {
		t.Fatalf("cross-line read %v", rd.Data)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	rg := newRig(t, Config{})
	// Two reads to the same line while the fill is outstanding must
	// produce a single downstream fill.
	rg.req.Send(mem.NewRead(0x80, 4))
	rg.req.Send(mem.NewRead(0x84, 4))
	rg.eq.Run()
	if len(rg.mem.Requests) != 1 {
		t.Fatalf("expected 1 coalesced fill, got %d", len(rg.mem.Requests))
	}
	if len(rg.req.Done) != 2 {
		t.Fatal("both requests must complete")
	}
}

func TestMSHRLimitBackpressure(t *testing.T) {
	rg := newRig(t, Config{MSHRs: 2})
	for i := 0; i < 8; i++ {
		rg.req.Send(mem.NewRead(uint64(i)*64, 4))
	}
	rg.eq.Run()
	if len(rg.req.Done) != 8 {
		t.Fatalf("completed %d of 8 under MSHR pressure", len(rg.req.Done))
	}
}

func TestUncacheableBypass(t *testing.T) {
	rg := newRig(t, Config{})
	p := mem.NewRead(0x500, 8)
	p.Uncacheable = true
	rg.req.Send(p)
	rg.eq.Run()
	if rg.reg.Lookup("l1.bypasses").Value() != 1 {
		t.Fatal("uncacheable packet should bypass")
	}
	// A second uncacheable access still goes downstream (no caching).
	p2 := mem.NewRead(0x500, 8)
	p2.Uncacheable = true
	rg.req.Send(p2)
	rg.eq.Run()
	if len(rg.mem.Requests) != 2 {
		t.Fatalf("bypass must not allocate: %d mem requests", len(rg.mem.Requests))
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct-mapped 4-set cache: lines at stride 256 collide.
	rg := newRig(t, Config{SizeBytes: 512, Assoc: 2, LineBytes: 64})
	// Fill both ways of set 0: addrs 0 and 256.
	rg.req.Send(mem.NewRead(0, 4))
	rg.eq.Run()
	rg.req.Send(mem.NewRead(256, 4))
	rg.eq.Run()
	// Touch 0 so 256 becomes LRU, then insert 512 -> evicts 256.
	rg.req.Send(mem.NewRead(0, 4))
	rg.eq.Run()
	rg.req.Send(mem.NewRead(512, 4))
	rg.eq.Run()
	hitsBefore := rg.reg.Lookup("l1.hits").Value()
	rg.req.Send(mem.NewRead(0, 4)) // must still hit
	rg.eq.Run()
	if rg.reg.Lookup("l1.hits").Value() != hitsBefore+1 {
		t.Fatal("LRU evicted the recently used line")
	}
}

func TestSnoopDowngradePullsDirtyData(t *testing.T) {
	// upper cache (l1) above llc: llc snoops l1.
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	l1 := New("l1x", eq, mem.NewPackets(), reg, Config{SizeBytes: 1 << 10, Assoc: 2, HitLatency: sim.Nanosecond})
	llc := New("llcx", eq, mem.NewPackets(), reg, Config{SizeBytes: 8 << 10, Assoc: 4, HitLatency: 5 * sim.Nanosecond})
	llc.RegisterSnooper(l1)

	cpu := memtest.NewRequestor(eq)
	dma := memtest.NewRequestor(eq)
	m := memtest.NewEchoResponder(eq, 0, 1<<20, 30*sim.Nanosecond)
	mem.Bind(cpu.Port, l1.CPUPort())
	mem.Bind(dma.Port, llc.CPUPort())
	mem.Bind(llc.MemPort(), m.Port)
	// l1 would normally sit above llc via a bus; for this test the l1
	// mem port hangs unbound: writes stay dirty in l1.

	// CPU dirties a line in l1 (write allocate fetches via llc... l1's
	// mem port is unbound, so pre-load the line with a full-line write
	// that needs no fetch).
	line := make([]byte, 64)
	for i := range line {
		line[i] = 0x77
	}
	cpu.Send(mem.NewWrite(0x200, line))
	eq.Run()

	// DMA reads the same line through the LLC: the snoop must pull the
	// dirty data out of l1.
	rd := mem.NewRead(0x200, 64)
	dma.Send(rd)
	eq.Run()
	if !bytes.Equal(rd.Data, line) {
		t.Fatalf("snoop read %v..., want 0x77s", rd.Data[:4])
	}
	if reg.Lookup("llcx.snoop_dirty").Value() != 1 {
		t.Fatal("snoop_dirty not counted")
	}
	// Downgrade leaves l1's copy valid and clean: a CPU re-read hits.
	hits := reg.Lookup("l1x.hits").Value()
	rd2 := mem.NewRead(0x200, 64)
	cpu.Send(rd2)
	eq.Run()
	if reg.Lookup("l1x.hits").Value() != hits+1 {
		t.Fatal("downgraded line should still hit in l1")
	}
}

func TestSnoopInvalidateOnWrite(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	l1 := New("l1y", eq, mem.NewPackets(), reg, Config{SizeBytes: 1 << 10, Assoc: 2, HitLatency: sim.Nanosecond})
	llc := New("llcy", eq, mem.NewPackets(), reg, Config{SizeBytes: 8 << 10, Assoc: 4, HitLatency: 5 * sim.Nanosecond})
	llc.RegisterSnooper(l1)
	cpu := memtest.NewRequestor(eq)
	dma := memtest.NewRequestor(eq)
	m := memtest.NewEchoResponder(eq, 0, 1<<20, 30*sim.Nanosecond)
	mem.Bind(cpu.Port, l1.CPUPort())
	mem.Bind(dma.Port, llc.CPUPort())
	mem.Bind(llc.MemPort(), m.Port)

	line := make([]byte, 64)
	cpu.Send(mem.NewWrite(0x300, line))
	eq.Run()

	// DMA full-line write invalidates l1's copy.
	newData := make([]byte, 64)
	for i := range newData {
		newData[i] = 0x11
	}
	dma.Send(mem.NewWrite(0x300, newData))
	eq.Run()

	misses := reg.Lookup("l1y.misses").Value()
	_ = misses
	if got, _ := l1.SnoopDowngrade(0x300); got {
		t.Fatal("l1 line should have been invalidated, not dirty")
	}
	if _, ok := l1.lookup(0x300); ok {
		t.Fatal("l1 line should be gone after invalidation snoop")
	}
}

func TestFunctionalThroughCache(t *testing.T) {
	rg := newRig(t, Config{})
	// Timing write dirties the cache; functional read must see it.
	line := make([]byte, 64)
	line[0] = 0xfe
	rg.req.Send(mem.NewWrite(0x600, line))
	rg.eq.Run()
	got := make([]byte, 1)
	rg.c.ReadFunctional(0x600, got)
	if got[0] != 0xfe {
		t.Fatalf("functional read through cache got %#x", got[0])
	}
	// Functional write visible to timing read (hit path).
	rg.c.WriteFunctional(0x600, []byte{0x5c})
	rd := mem.NewRead(0x600, 1)
	rg.req.Send(rd)
	rg.eq.Run()
	if rd.Data[0] != 0x5c {
		t.Fatalf("timing read after functional write got %#x", rd.Data[0])
	}
}

func TestFlushAll(t *testing.T) {
	rg := newRig(t, Config{})
	line := make([]byte, 64)
	line[5] = 0xab
	rg.req.Send(mem.NewWrite(0x700, line))
	rg.eq.Run()
	rg.c.FlushAll()
	got := make([]byte, 64)
	rg.mem.Store.Read(0x700, got)
	if got[5] != 0xab {
		t.Fatal("flush did not push dirty data downstream")
	}
	// After flush the next access misses.
	misses := rg.reg.Lookup("l1.misses").Value()
	rg.req.Send(mem.NewRead(0x700, 4))
	rg.eq.Run()
	if rg.reg.Lookup("l1.misses").Value() != misses+1 {
		t.Fatal("flush should invalidate lines")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets should panic")
		}
	}()
	New("bad", eq, nil, reg, Config{SizeBytes: 3000, Assoc: 2, LineBytes: 64})
}

func TestBadLineSizePanics(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two line size should panic")
		}
	}()
	New("bad", eq, nil, reg, Config{SizeBytes: 192, Assoc: 1, LineBytes: 48}) // 4 sets
}

// pattern returns n bytes seed, seed+1, ...
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// A dirty eviction must write back the exact bytes of the evicted line
// even though the way is refilled at once, and the refilled line must
// not show the old payload.
func TestDirtyEvictionWritesBackLineAndRefillIsZero(t *testing.T) {
	rg := newRig(t, Config{SizeBytes: 256, Assoc: 1, LineBytes: 64}) // 4 sets
	old := pattern(64, 0x40)
	rg.req.Send(mem.NewWrite(0x0, old))
	rg.eq.Run()
	// A payload-less full-line write to the same set evicts 0x0 and
	// installs 0x100 without fetching or copying any bytes.
	rg.req.Send(mem.NewWriteSize(0x100, 64))
	rg.eq.Run()
	if got := rg.reg.Lookup("l1.writebacks").Value(); got != 1 {
		t.Fatalf("writebacks = %v, want 1", got)
	}
	got := make([]byte, 64)
	rg.mem.Store.Read(0x0, got)
	if !bytes.Equal(got, old) {
		t.Fatalf("written-back line = %v, want %v", got, old)
	}
	rd := mem.NewRead(0x100, 64)
	rg.req.Send(rd)
	rg.eq.Run()
	if rg.reg.Lookup("l1.misses").Value() != 0 {
		t.Fatal("read of the installed line should hit")
	}
	if !bytes.Equal(rd.Data, make([]byte, 64)) {
		t.Fatalf("refilled line reads %v, want zeros", rd.Data)
	}
}

// FlushAll must handle sets whose line state and payload were never
// allocated (most of the cache here) next to dirty and clean lines,
// in the first line-state block and in a later one.
func TestFlushAllSkipsUnfilledSets(t *testing.T) {
	rg := newRig(t, Config{SizeBytes: 16 << 10, Assoc: 2, LineBytes: 64}) // 128 sets
	rg.c.FlushAll()                                                       // nothing filled yet
	dirty, later := pattern(64, 1), pattern(64, 0x90)
	rg.req.Send(mem.NewWrite(0x1c0, dirty))  // set 7, block 0
	rg.req.Send(mem.NewWrite(0x1900, later)) // set 100, block 6
	rg.req.Send(mem.NewRead(0x40, 4))        // set 1, clean
	rg.eq.Run()
	rg.c.FlushAll()
	got := make([]byte, 64)
	for la, want := range map[uint64][]byte{0x1c0: dirty, 0x1900: later} {
		rg.mem.Store.Read(la, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("flushed line %#x = %v, want %v", la, got, want)
		}
	}
	for _, la := range []uint64{0x1c0, 0x1900, 0x40} {
		if _, ok := rg.c.lookup(la); ok {
			t.Fatalf("line %#x still cached after FlushAll", la)
		}
	}
}

// The snoop calls must return a copy of the line's own payload — here
// of the second way of a set other than 0 — and leave the cache's copy
// untouched when the caller scribbles on it.
func TestSnoopsReturnLineData(t *testing.T) {
	rg := newRig(t, Config{SizeBytes: 512, Assoc: 2, LineBytes: 64}) // 4 sets
	first, second := pattern(64, 0x10), pattern(64, 0x80)
	rg.req.Send(mem.NewWrite(0x40, first))   // set 1, way 0
	rg.req.Send(mem.NewWrite(0x140, second)) // set 1, way 1
	rg.eq.Run()
	if s, ok := rg.c.lookup(0x140); !ok || s.way != 1 {
		t.Fatalf("0x140 at %+v (found %v), want way 1", s, ok)
	}

	dirty, data := rg.c.SnoopDowngrade(0x140)
	if !dirty || !bytes.Equal(data, second) {
		t.Fatalf("SnoopDowngrade = %v, %v; want true, %v", dirty, data, second)
	}
	clear(data)
	if dirty, _ := rg.c.SnoopDowngrade(0x140); dirty {
		t.Fatal("a downgraded line should be clean")
	}
	rd := mem.NewRead(0x140, 64)
	rg.req.Send(rd)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, second) {
		t.Fatalf("line after downgrade reads %v, want %v", rd.Data, second)
	}

	dirty, data = rg.c.SnoopInvalidate(0x40)
	if !dirty || !bytes.Equal(data, first) {
		t.Fatalf("SnoopInvalidate = %v, %v; want true, %v", dirty, data, first)
	}
	if _, ok := rg.c.lookup(0x40); ok {
		t.Fatal("invalidated line still cached")
	}
	if dirty, data := rg.c.SnoopInvalidate(0x140); dirty || data != nil {
		t.Fatalf("clean line invalidation = %v, %v; want false, nil", dirty, data)
	}
}

// refGeometries are the shapes the reference comparisons run over:
// fewer sets than one line-state block, exactly one block, and many
// blocks, each with a 3-way case, and a 16-way case, whose blocks
// widen from narrowWays while their sets hold dirty lines.
var refGeometries = []Config{
	{SizeBytes: 512, Assoc: 2, LineBytes: 64},    // 4 sets
	{SizeBytes: 768, Assoc: 3, LineBytes: 64},    // 4 sets
	{SizeBytes: 2048, Assoc: 2, LineBytes: 64},   // 16 sets: one block
	{SizeBytes: 3072, Assoc: 3, LineBytes: 64},   // 16 sets: one block
	{SizeBytes: 6144, Assoc: 3, LineBytes: 64},   // 32 sets: 2 blocks
	{SizeBytes: 16384, Assoc: 4, LineBytes: 64},  // 64 sets: 4 blocks
	{SizeBytes: 24576, Assoc: 3, LineBytes: 64},  // 128 sets: 8 blocks
	{SizeBytes: 32768, Assoc: 16, LineBytes: 64}, // 32 sets: 2 blocks
}

// Property: randomized mixed reads/writes through the cache always
// agree with a flat reference model. Random addresses rarely collide
// in a set, so each geometry first runs conflictOps, which evicts
// dirty lines from every set, and payloadSeeds, which the fuzz target
// runs on one geometry only.
func TestCacheVsReferenceProperty(t *testing.T) {
	for _, cfg := range refGeometries {
		if err := runVsReference(t, cfg, conflictOps(cfg)); err != nil {
			t.Fatalf("%+v: conflicts: %v", cfg, err)
		}
		for name, ops := range payloadSeeds {
			if err := runVsReference(t, cfg, ops); err != nil {
				t.Fatalf("%+v: %s: %v", cfg, name, err)
			}
		}
		f := func(ops []struct {
			Addr  uint16
			Write bool
			Val   byte
		}) bool {
			refOps := make([]refOp, len(ops))
			for i, op := range ops {
				refOps[i] = refOp{addr: uint64(op.Addr), size: 2, write: op.Write, val: op.Val}
			}
			return runVsReference(t, cfg, refOps) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

// conflictOps makes four passes over two bytes in each of Assoc+2
// lines of every set, so every set evicts dirty lines in each writing
// pass, and every block widens while its sets hold dirty non-zero
// lines. The passes write non-zero bytes (the first ones into lines
// without a payload), read back, write zeros over them (into lines
// with one) and read back.
func conflictOps(cfg Config) []refOp {
	numSets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	var ops []refOp
	for _, pass := range []struct{ write, zero bool }{{true, false}, {false, false}, {true, true}, {false, false}} {
		for tag := range cfg.Assoc + 2 {
			for set := range numSets {
				line := tag*numSets + set
				addr := uint64(line*cfg.LineBytes + set%(cfg.LineBytes-1))
				op := refOp{addr: addr, size: 2, write: pass.write, val: byte(line%255 + 1)}
				if pass.zero {
					op.val = 0
				}
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// payloadSeeds are op sequences, over the first geometry with more
// than one line-state block (32 sets of 3 ways, so lines 2048 bytes
// apart share a set), that walk a line through each transition of its
// payload: a non-zero store into a cached zero line, zeros stored over
// a line with a payload, eviction and writeback of such a line and the
// refill of its way, a dirty snoop of it (downgrade, then invalidate),
// and functional write-through over cached and uncached lines, then a
// flush of everything.
var payloadSeeds = map[string][]refOp{
	"non-zero into zero line": {
		{addr: 0x40, size: 16, write: true}, // zeros: a miss fills a zero line
		{addr: 0x48, size: 2, write: true, val: 9},
		{addr: 0x40, size: 16},
	},
	"zeros over payload": {
		{addr: 0x80, size: 16, write: true, val: 0x21},
		{addr: 0x84, size: 4, write: true},
		{addr: 0x80, size: 16},
		{addr: 0x80, size: 16, write: true},
		{addr: 0x80, size: 16},
	},
	"evict and write back payload": {
		{addr: 0x100, size: 8, write: true, val: 0x31},
		{addr: 0x100 + 1*2048, size: 4, write: true, val: 0x41},
		{addr: 0x100 + 2*2048, size: 4},
		{addr: 0x100 + 3*2048, size: 4},
		{addr: 0x100 + 4*2048, size: 4}, // refills the evicted ways
		{addr: 0x100 + 5*2048, size: 4},
		{addr: 0x100, size: 16},
		{addr: 0x100 + 1*2048, size: 8},
	},
	"dirty snoop of payload": {
		{addr: 0x200, size: 8, write: true, val: 0x51},
		{addr: 0x200, kind: snoopDown},
		{addr: 0x200, size: 16},
		{addr: 0x204, size: 2, write: true, val: 0x61},
		{addr: 0x200, kind: snoopInv},
		{addr: 0x200, size: 16},
		{addr: 0x200, kind: snoopDown}, // clean: nothing moves
		{addr: 0x200, kind: snoopInv},  // clean with a payload
		{addr: 0x200, size: 16},
	},
	"payload reused after a drop": {
		{addr: 0x600, size: 16, write: true, val: 0xb1},
		{addr: 0x600, kind: snoopInv}, // gives the payload back
		{addr: 0x680, size: 4},        // a cached zero line
		{addr: 0x688, size: 2, write: true, val: 0xc1},
		{addr: 0x680, size: 16},
	},
	"functional write-through": {
		{addr: 0x400, size: 16, write: true, val: 0x71},
		{addr: 0x400, size: 8, kind: funcWrite}, // zeros over a payload
		{addr: 0x408, size: 8, kind: funcWrite, val: 0x81},
		{addr: 0x1400, size: 4, kind: funcWrite, val: 0x91}, // uncached
		{addr: 0x500, size: 4},                              // a cached zero line
		{addr: 0x504, size: 4, kind: funcWrite, val: 0xa1},
		{addr: 0x400, size: 16},
		{addr: 0x500, size: 8},
		{addr: 0x1400, size: 4},
		{kind: flushAll},
		{addr: 0x400, size: 16},
		{addr: 0x500, size: 8},
	},
}

// FuzzCacheVsReference drives the reference comparison from bytes over
// the geometries with more than one line-state block: the first byte
// picks the geometry, then every 4 bytes are one op (address low and
// high byte; in the third, bit 0 selects a write, bits 1-4 the size,
// 1-16 bytes, and bits 5-7 the kind: 0-3 a timing access, 4 a
// functional write, 5 and 6 a snoop invalidate and downgrade of the
// address's line, 7 a flush; the fourth is the value written, 0 for
// zeros). Each geometry's conflictOps and payloadSeeds are seeds.
func FuzzCacheVsReference(f *testing.F) {
	var multi []Config
	for _, cfg := range refGeometries {
		if cfg.SizeBytes/(cfg.Assoc*cfg.LineBytes) > blockSets {
			multi = append(multi, cfg)
		}
	}
	encode := func(geometry int, ops []refOp) []byte {
		seed := []byte{byte(geometry)}
		for _, op := range ops {
			flags := byte(max(op.size, 1)-1) << 1
			if op.write {
				flags |= 1
			}
			if op.kind != timingAccess {
				flags |= byte(op.kind+3) << 5
			}
			seed = append(seed, byte(op.addr), byte(op.addr>>8), flags, op.val)
		}
		return seed
	}
	for i, cfg := range multi {
		f.Add(encode(i, conflictOps(cfg)))
	}
	for _, ops := range payloadSeeds {
		f.Add(encode(0, ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := multi[int(data[0])%len(multi)]
		data = data[1:min(len(data), 1+4*4096)]
		var ops []refOp
		for ; len(data) >= 4; data = data[4:] {
			ops = append(ops, refOp{
				addr:  uint64(data[0]) | uint64(data[1])<<8,
				size:  1 + int(data[2]>>1)%16,
				write: data[2]&1 != 0,
				val:   data[3],
				kind:  refKind(max(0, int(data[2]>>5)-3)),
			})
		}
		if err := runVsReference(t, cfg, ops); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}

// refKind is what a refOp does: a timing access through the cache's
// cpu port, or one of the calls the coherence point and the functional
// backdoor make.
type refKind uint8

const (
	timingAccess refKind = iota
	funcWrite            // WriteFunctional: write-through
	snoopInv             // SnoopInvalidate of the op's line
	snoopDown            // SnoopDowngrade of the op's line
	flushAll             // FlushAll
)

// refOp is one op of a reference comparison: a timing access or
// functional write of size bytes at addr, a write storing
// pattern(size, val), or zeros when val is 0; a snoop of addr's line;
// or a flush.
type refOp struct {
	addr  uint64
	size  int
	write bool
	val   byte
	kind  refKind
}

// runVsReference runs ops one at a time through a fresh cache of
// geometry cfg and returns the first read whose data, through the
// timing port or ReadFunctional, differs from a flat reference memory,
// or the first op after which payloadsHeld fails. A snoop that returns
// dirty data writes it below the cache, as the coherence point taking
// ownership of the line would.
func runVsReference(t *testing.T, cfg Config, ops []refOp) error {
	rg := newRig(t, cfg)
	ref := make([]byte, 1<<16+16)
	var err error
	for _, op := range ops {
		span := ref[op.addr : op.addr+uint64(op.size)]
		data := make([]byte, op.size)
		if op.val != 0 {
			data = pattern(op.size, op.val)
		}
		switch la := mem.AlignDown(op.addr, uint64(rg.c.cfg.LineBytes)); {
		case op.kind == funcWrite:
			rg.c.WriteFunctional(op.addr, data)
			copy(span, data)
		case op.kind == snoopInv || op.kind == snoopDown:
			snoop := rg.c.SnoopInvalidate
			if op.kind == snoopDown {
				snoop = rg.c.SnoopDowngrade
			}
			if dirty, line := snoop(la); dirty {
				rg.mem.Store.Write(la, line)
			}
		case op.kind == flushAll:
			rg.c.FlushAll()
		case op.write:
			rg.req.Send(mem.NewWrite(op.addr, data))
			copy(span, data)
		default:
			want := bytes.Clone(span)
			got := make([]byte, op.size)
			rg.c.ReadFunctional(op.addr, got)
			if !bytes.Equal(got, want) && err == nil {
				err = fmt.Errorf("functional read %#x+%d = %v, want %v", op.addr, op.size, got, want)
			}
			rd := mem.NewRead(op.addr, op.size)
			rg.req.OnDone = func(p *mem.Packet) {
				if p == rd && !bytes.Equal(p.Data, want) && err == nil {
					err = fmt.Errorf("read %#x+%d = %v, want %v", op.addr, op.size, p.Data, want)
				}
			}
			rg.req.Send(rd)
		}
		rg.eq.Run()
		rg.req.OnDone = nil
		if e := payloadsHeld(rg.c); e != nil && err == nil {
			err = fmt.Errorf("after %+v: %v", op, e)
		}
	}
	return err
}

// payloadsHeld checks that c.payloads holds a payload, one line long,
// for exactly the valid lines whose payloadBit is set: a line that is
// replaced or invalidated gives its payload back.
func payloadsHeld(c *Cache) error {
	flagged := 0
	for b, blk := range c.blocks {
		w := len(blk) >> blockShift
		for i := range blk {
			if blk[i].stamp&payloadBit == 0 {
				continue
			}
			flagged++
			s := slot{b<<blockShift + i/w, i % w}
			if p, ok := c.payloads[c.payloadKey(s)]; !ok || len(p) != c.cfg.LineBytes {
				return fmt.Errorf("line %#x at %+v has no payload", blk[i].tag, s)
			}
		}
	}
	if len(c.payloads) != flagged {
		return fmt.Errorf("%d payloads held for %d lines with one", len(c.payloads), flagged)
	}
	return nil
}

// A fresh cache holds no line state: lookups, snoops, functional
// accesses and a flush of it allocate nothing and leave every block
// unallocated, and a fill allocates exactly the block of its set,
// narrowWays wide. The block widens to Assoc ways when one of its sets
// fills a third way, and no sooner.
func TestLineBlocksAllocatedOnFill(t *testing.T) {
	rg := newRig(t, Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}) // 128 sets: 8 blocks
	c := rg.c
	c.SetDownstreamFunctional(nil) // count the cache's allocations alone
	buf := make([]byte, 256)
	probe := func() {
		for _, a := range []uint64{0, 0x40, 0x1c0, 0x2000, 0xffc0} {
			c.lookup(a)
			c.SnoopInvalidate(a)
			c.SnoopDowngrade(a)
			c.ReadFunctional(a+8, buf)
			c.WriteFunctional(a+8, buf)
			c.OverlayFunctional(a+8, buf)
			c.UpdateFunctional(a+8, buf)
		}
		c.FlushAll()
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(10, probe); allocs != 0 {
			t.Fatalf("probing a fresh cache allocated %v times, want 0", allocs)
		}
	} else {
		probe()
	}
	allocated := func() (n int) {
		for _, b := range c.blocks {
			if b != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("%d of %d blocks allocated before any fill", n, len(c.blocks))
	}

	fill := func(addr uint64) {
		rg.req.Send(mem.NewRead(addr, 4))
		rg.eq.Run()
	}
	fill(0x1c0) // set 7: block 0
	if n := allocated(); n != 1 || len(c.blocks[0]) != blockSets*narrowWays {
		t.Fatalf("after one fill: %d blocks allocated, block 0 holds %d lines; want 1 block of %d",
			n, len(c.blocks[0]), blockSets*narrowWays)
	}
	fill(0x3c0) // set 15: still block 0
	fill(0x400) // set 16: block 1
	if n := allocated(); n != 2 || c.blocks[1] == nil {
		t.Fatalf("after fills of sets 7, 15 and 16: %d blocks allocated, want blocks 0 and 1", n)
	}

	const stride = 128 * 64 // one set's next line
	fill(0x1c0 + stride)    // set 7's second way: still narrow
	if len(c.blocks[0]) != blockSets*narrowWays {
		t.Fatalf("block 0 holds %d lines after set 7's second way, want %d", len(c.blocks[0]), blockSets*narrowWays)
	}
	fill(0x1c0 + 2*stride) // set 7's third way widens block 0 alone
	if len(c.blocks[0]) != blockSets*c.cfg.Assoc || len(c.blocks[1]) != blockSets*narrowWays {
		t.Fatalf("after set 7's third way: blocks 0 and 1 hold %d and %d lines, want %d and %d",
			len(c.blocks[0]), len(c.blocks[1]), blockSets*c.cfg.Assoc, blockSets*narrowWays)
	}
	for way := range 3 {
		la := 0x1c0 + uint64(way)*stride
		if s, ok := c.lookup(la); !ok || s.way != way {
			t.Fatalf("line %#x at %+v (found %v) after widening, want way %d", la, s, ok, way)
		}
	}
	if _, ok := c.lookup(0x3c0); !ok {
		t.Fatal("set 15's line lost when block 0 widened")
	}
}

// A timing-only run stores no data, so its lines allocate no payload;
// yet a cached line of zeros is the newest copy of its bytes, and the
// functional reads must show it over non-zero bytes below the cache.
func TestZeroLineMasksDownstream(t *testing.T) {
	rg := newRig(t, Config{})
	old := pattern(192, 0x30)
	rg.mem.Store.Write(0x800, old)
	rg.req.Send(mem.NewWrite(0x800, make([]byte, 64))) // full line: no fetch
	rg.req.Send(mem.NewWriteSize(0x840, 64))           // no payload at all
	rg.eq.Run()
	if len(rg.c.payloads) != 0 {
		t.Fatal("a zero line took a payload")
	}

	buf := make([]byte, 160) // two cached zero lines and half a line below
	rg.c.ReadFunctional(0x800, buf)
	if want := append(make([]byte, 128), old[128:160]...); !bytes.Equal(buf, want) {
		t.Fatalf("ReadFunctional = %v, want %v", buf, want)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	rg.c.OverlayFunctional(0x800, buf)
	want := bytes.Repeat([]byte{0xff}, 160)
	clear(want[:128])
	if !bytes.Equal(buf, want) {
		t.Fatalf("OverlayFunctional = %v, want %v", buf, want)
	}
}

// Property: set indexing is uniform for stride-64 addresses.
func TestSetIndexCoverage(t *testing.T) {
	rg := newRig(t, Config{SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64})
	counts := make(map[int]int)
	for a := uint64(0); a < 1<<16; a += 64 {
		counts[rg.c.setIndex(a)]++
	}
	if numSets := int(rg.c.setMask) + 1; len(counts) != numSets {
		t.Fatalf("covered %d sets of %d", len(counts), numSets)
	}
	want := counts[0]
	for s, n := range counts {
		if n != want {
			t.Fatalf("set %d has %d accesses, want %d", s, n, want)
		}
	}
}

// Audit holds a cache to the state a drained run leaves: no miss
// outstanding, every miss record recycled, and no packet queued or
// blocked in either direction.
func TestAuditReportsUndrainedCache(t *testing.T) {
	rg := newRig(t, Config{})
	rg.req.Send(mem.NewRead(0x100, 4))
	err := rg.c.Audit()
	if err == nil || !strings.Contains(err.Error(), "l1: 1 misses outstanding") || !strings.Contains(err.Error(), "l1.memq: 1 packets queued") {
		t.Fatalf("Audit during a miss = %v, want the miss and its queued fill", err)
	}
	rg.req.RefuseResponses = true
	rg.eq.Run()
	if err := rg.c.Audit(); err == nil || !strings.Contains(err.Error(), "l1.respq: 1 packets queued, blocked true") {
		t.Fatalf("Audit with the response refused = %v, want a blocked respq", err)
	}
	rg.req.ReleaseResponses()
	rg.eq.Run()
	if err := rg.c.Audit(); err != nil {
		t.Fatalf("Audit after the read: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 8 << 10, Assoc: 2}, ""},
		{Config{SizeBytes: 8 << 10, Assoc: 1, LineBytes: 4096}, ""},
		{Config{Assoc: 2}, "SizeBytes 0 is not positive"},
		{Config{SizeBytes: -4096, Assoc: 2}, "SizeBytes -4096 is not positive"},
		{Config{SizeBytes: 8 << 10}, "Assoc 0 is not positive"},
		{Config{SizeBytes: 8 << 10, Assoc: 2, LineBytes: -64}, "LineBytes -64 is not positive"},
		{Config{SizeBytes: 8 << 10, Assoc: 2, MSHRs: -1}, "MSHRs -1 is not positive"},
		{Config{SizeBytes: 8 << 10, Assoc: 2, MemQueueDepth: -2}, "MemQueueDepth -2 is not positive"},
		{Config{SizeBytes: 8 << 10, Assoc: 2, LineBytes: 48}, "LineBytes 48 is not a power of two of at most 4096"},
		{Config{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 8192}, "LineBytes 8192 is not a power of two of at most 4096"},
		{Config{SizeBytes: 12 << 10, Assoc: 2}, "SizeBytes 12288 / (Assoc 2 * LineBytes 64) gives 96 sets, not a power of two"},
		{Config{SizeBytes: 64, Assoc: 2}, "SizeBytes 64 / (Assoc 2 * LineBytes 64) gives 0 sets, not a power of two"},
	} {
		err := c.cfg.Validate()
		if (c.want == "") != (err == nil) || (err != nil && err.Error() != c.want) {
			t.Errorf("%+v: Validate = %v, want %q", c.cfg, err, c.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		if r := recover(); r != "cache llc: Assoc -4 is not positive" {
			t.Fatalf("panic = %v", r)
		}
	}()
	New("llc", sim.NewEventQueue(), nil, stats.NewRegistry(), Config{SizeBytes: 2 << 20, Assoc: -4})
}

// A read marked NoPayload, missing or hitting, gets no payload, but the
// fill it causes still carries the line's bytes into the cache, so a
// later read sees them.
func TestNoPayloadReadLeavesCachedData(t *testing.T) {
	rg := newRig(t, Config{})
	want := pattern(64, 0x11)
	rg.mem.Store.Write(0x300, want)
	for range 2 { // a miss, then a hit
		rd := mem.NewRead(0x300, 64)
		rd.NoPayload = true
		rg.req.Send(rd)
		rg.eq.Run()
		if rd.Data != nil {
			t.Fatalf("NoPayload read carries %v, want no payload", rd.Data)
		}
	}
	if rg.reg.Lookup("l1.misses").Value() != 1 || rg.reg.Lookup("l1.hits").Value() != 1 {
		t.Fatal("want one miss, then one hit")
	}
	rd := mem.NewRead(0x300, 64)
	rg.req.Send(rd)
	rg.eq.Run()
	if !bytes.Equal(rd.Data, want) {
		t.Fatalf("read after NoPayload reads = %v, want %v", rd.Data, want)
	}
}
