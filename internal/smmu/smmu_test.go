package smmu

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// rig: device requestor -> SMMU -> echo memory. Page tables live in
// the same memory, built via the functional backdoor.
type rig struct {
	eq  *sim.EventQueue
	s   *SMMU
	dev *memtest.Requestor
	m   *memtest.EchoResponder
	tb  *TableBuilder
	reg *stats.Registry

	nextFrame uint64
}

const tableBase = 0x40_0000 // physical region for page tables

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	s := New("smmu", eq, mem.NewPackets(), reg, cfg)
	dev := memtest.NewRequestor(eq)
	m := memtest.NewEchoResponder(eq, 0, 1<<23, 30*sim.Nanosecond)
	mem.Bind(dev.Port, s.DevPort())
	mem.Bind(s.MemPort(), m.Port)

	rg := &rig{eq: eq, s: s, dev: dev, m: m, reg: reg, nextFrame: tableBase}
	rg.tb = NewTableBuilder(funcStore{m}, rg.allocFrame)
	s.SetRootTable(rg.tb.Root())
	return rg
}

func (rg *rig) allocFrame() uint64 {
	f := rg.nextFrame
	rg.nextFrame += PageBytes
	return f
}

type funcStore struct{ m *memtest.EchoResponder }

func (f funcStore) ReadFunctional(addr uint64, buf []byte)   { f.m.Store.Read(addr, buf) }
func (f funcStore) WriteFunctional(addr uint64, data []byte) { f.m.Store.Write(addr, data) }

func (rg *rig) count(name string) float64 { return rg.reg.Lookup("smmu." + name).Value() }

// translate is the reference walk: a functional read of each table
// level, mirroring what the hardware walker does with timed reads. It
// reports false on any invalid entry.
func (b *TableBuilder) translate(iova uint64) (uint64, bool) {
	base := b.root
	for level := 0; level < WalkLevels; level++ {
		pte := b.readPTE(base + vaIndex(iova, level)*PTESize)
		if !PTEValid(pte) {
			return 0, false
		}
		base = PTEAddr(pte)
	}
	return base + iova%PageBytes, true
}

func TestPTEEncoding(t *testing.T) {
	pte := MakePTE(0x1234_5000)
	if !PTEValid(pte) || PTEAddr(pte) != 0x1234_5000 {
		t.Fatalf("PTE roundtrip failed: %#x", pte)
	}
	if PTEValid(0) {
		t.Fatal("zero PTE must be invalid")
	}
}

func TestVAIndexCoversAllBits(t *testing.T) {
	va := uint64(0x0000_7fc3_0201_1000)
	idx0 := vaIndex(va, 0)
	idx3 := vaIndex(va, 3)
	if idx0 != (va>>39)&511 || idx3 != (va>>12)&511 {
		t.Fatalf("vaIndex wrong: %d %d", idx0, idx3)
	}
}

func TestTranslationThroughWalk(t *testing.T) {
	rg := newRig(t, Config{})
	const iova = 0x10_0000
	const phys = 0x20_0000
	rg.tb.Map(iova, phys)
	rg.m.Store.Write(phys+0x80, []byte{0xaa, 0xbb})

	rd := mem.NewRead(iova+0x80, 2)
	rg.dev.Send(rd)
	rg.eq.Run()
	if len(rg.dev.Done) != 1 {
		t.Fatal("translated read lost")
	}
	if !bytes.Equal(rd.Data, []byte{0xaa, 0xbb}) {
		t.Fatalf("read through SMMU got %v", rd.Data)
	}
	// Response address restored to the device-virtual address.
	if rd.Addr != iova+0x80 {
		t.Fatalf("response addr %#x, want IOVA", rd.Addr)
	}
	if rg.count("ptws") != 1 || rg.count("translations") != 1 {
		t.Fatalf("ptws=%v translations=%v", rg.count("ptws"), rg.count("translations"))
	}
	// 4 PTE reads + 1 data read reached memory.
	if len(rg.m.Requests) != 5 {
		t.Fatalf("memory saw %d requests, want 5", len(rg.m.Requests))
	}
}

func TestUTLBHitSecondAccess(t *testing.T) {
	rg := newRig(t, Config{})
	rg.tb.Map(0x10_0000, 0x20_0000)
	rg.dev.Send(mem.NewRead(0x10_0000, 4))
	rg.eq.Run()
	firstLat := rg.dev.DoneAt[0]
	rg.dev.Send(mem.NewRead(0x10_0040, 4))
	start := rg.eq.Now()
	rg.eq.Run()
	secondLat := rg.eq.Now() - start
	if rg.count("ptws") != 1 {
		t.Fatalf("second access should not walk: ptws=%v", rg.count("ptws"))
	}
	if rg.count("utlb_misses") != 1 {
		t.Fatalf("utlb_misses=%v", rg.count("utlb_misses"))
	}
	if secondLat >= firstLat {
		t.Fatalf("uTLB hit latency %v should beat walk latency %v", secondLat, firstLat)
	}
}

func TestPWCSkipsLevels(t *testing.T) {
	rg := newRig(t, Config{})
	// Two pages sharing the same leaf table.
	rg.tb.Map(0x10_0000, 0x20_0000)
	rg.tb.Map(0x10_1000, 0x20_1000)
	rg.dev.Send(mem.NewRead(0x10_0000, 4))
	rg.eq.Run()
	n1 := len(rg.m.Requests) // 4 PTE reads + 1 data
	rg.dev.Send(mem.NewRead(0x10_1000, 4))
	rg.eq.Run()
	n2 := len(rg.m.Requests) - n1
	// Second walk hits the PWC for levels 1-3: 1 PTE read + 1 data.
	if n2 != 2 {
		t.Fatalf("PWC walk issued %d memory requests, want 2", n2)
	}
}

func TestWalkCoalescing(t *testing.T) {
	rg := newRig(t, Config{})
	rg.tb.Map(0x10_0000, 0x20_0000)
	rg.dev.Send(mem.NewRead(0x10_0000, 4))
	rg.dev.Send(mem.NewRead(0x10_0100, 4))
	rg.eq.Run()
	if rg.count("ptws") != 1 {
		t.Fatalf("concurrent same-page requests should share one walk, got %v", rg.count("ptws"))
	}
	if len(rg.dev.Done) != 2 {
		t.Fatal("both coalesced requests must complete")
	}
}

func TestBypassMode(t *testing.T) {
	rg := newRig(t, Config{Bypass: true})
	rg.m.Store.Write(0x3000, []byte{5})
	rd := mem.NewRead(0x3000, 1)
	rg.dev.Send(rd)
	rg.eq.Run()
	if rd.Data[0] != 5 {
		t.Fatal("bypass read failed")
	}
	if rg.count("translations") != 0 {
		t.Fatal("bypass must not count translations")
	}
}

func TestTLBHoldsMoreThanUTLB(t *testing.T) {
	rg := newRig(t, Config{UTLBEntries: 4, TLBEntries: 256, TLBAssoc: 4})
	// Touch 8 pages: uTLB (4 entries) thrashes, TLB holds all.
	for i := uint64(0); i < 8; i++ {
		rg.tb.Map(0x10_0000+i*PageBytes, 0x20_0000+i*PageBytes)
	}
	for i := uint64(0); i < 8; i++ {
		rg.dev.Send(mem.NewRead(0x10_0000+i*PageBytes, 4))
	}
	rg.eq.Run()
	walks := rg.count("ptws")
	// Revisit the first page: uTLB long since evicted, TLB hit.
	rg.dev.Send(mem.NewRead(0x10_0000, 4))
	rg.eq.Run()
	if rg.count("ptws") != walks {
		t.Fatal("TLB hit should avoid a new walk")
	}
	if rg.count("utlb_misses") < 9 {
		t.Fatalf("expected uTLB thrash, misses=%v", rg.count("utlb_misses"))
	}
}

func TestPageCrossingPanics(t *testing.T) {
	rg := newRig(t, Config{})
	rg.tb.Map(0x10_0000, 0x20_0000)
	defer func() {
		if recover() == nil {
			t.Fatal("page-crossing request must panic")
		}
	}()
	rg.dev.Send(mem.NewRead(0x10_0000+PageBytes-4, 8))
	rg.eq.Run()
}

func TestWriteTranslated(t *testing.T) {
	rg := newRig(t, Config{})
	rg.tb.Map(0x50_0000, 0x21_0000)
	rg.dev.Send(mem.NewWrite(0x50_0010, []byte{1, 2, 3}))
	rg.eq.Run()
	got := make([]byte, 3)
	rg.m.Store.Read(0x21_0010, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("translated write landed wrong: %v", got)
	}
}

// Property: hardware walk result always equals the reference walk.
func TestWalkMatchesSoftwareTranslate(t *testing.T) {
	rg := newRig(t, Config{UTLBEntries: 2, TLBEntries: 16, TLBAssoc: 2, PWCEntries: 4})
	// Build a scattered mapping.
	mappings := map[uint64]uint64{}
	physNext := uint64(0x60_0000)
	for i := uint64(0); i < 32; i++ {
		iova := 0x7_0000_0000 + i*PageBytes*7 // spread across L3 tables
		iova &= (1 << 40) - 1
		iova = mem.AlignDown(iova, PageBytes)
		rg.tb.Map(iova, physNext)
		mappings[iova] = physNext
		physNext += PageBytes
	}
	f := func(pick uint8, off uint16) bool {
		keys := make([]uint64, 0, len(mappings))
		for k := range mappings {
			keys = append(keys, k)
		}
		// map iteration order: sort for determinism
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if keys[j] < keys[i] {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		iova := keys[int(pick)%len(keys)] + uint64(off)%PageBytes
		want, ok := rg.tb.translate(iova)
		if !ok {
			return false
		}
		// Plant a marker at the expected physical address; a timing
		// read through the SMMU must observe it.
		marker := byte(want>>12) ^ byte(off) ^ 0x5a
		rg.m.Store.Write(want, []byte{marker})
		rd := mem.NewRead(iova, 1)
		rg.dev.Send(rd)
		rg.eq.Run()
		return rd.Data[0] == marker
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableBuilderIdempotentMap(t *testing.T) {
	rg := newRig(t, Config{})
	rg.tb.Map(0x10_0000, 0x20_0000)
	framesBefore := rg.nextFrame
	rg.tb.Map(0x10_1000, 0x20_1000) // same leaf table: no new frames
	if rg.nextFrame != framesBefore {
		t.Fatal("mapping a sibling page should not allocate new tables")
	}
	if pa, ok := rg.tb.translate(0x10_1000); !ok || pa != 0x20_1000 {
		t.Fatalf("translate = %#x, %v", pa, ok)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	rg := newRig(t, Config{})
	if _, ok := rg.tb.translate(0x9999_0000); ok {
		t.Fatal("unmapped IOVA should not translate")
	}
}

func TestStatsShape(t *testing.T) {
	rg := newRig(t, Config{})
	rg.tb.MapRange(0x10_0000, 0x20_0000, 16*PageBytes)
	for i := 0; i < 64; i++ {
		rg.dev.Send(mem.NewRead(0x10_0000+uint64(i%16)*PageBytes+uint64(i), 1))
	}
	rg.eq.Run()
	if rg.count("translations") != 64 {
		t.Fatalf("translations = %v", rg.count("translations"))
	}
	if rg.count("utlb_lookups") != 64 {
		t.Fatalf("utlb_lookups = %v", rg.count("utlb_lookups"))
	}
	lat := rg.reg.Lookup("smmu.trans_ns").(*stats.Distribution)
	if lat.Count() != 64 || lat.Mean() <= 0 {
		t.Fatalf("trans_ns distribution wrong: count=%d mean=%v", lat.Count(), lat.Mean())
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, ""},
		{Config{TLBEntries: 256, TLBAssoc: 8, Walkers: 4}, ""},
		{Config{UTLBEntries: -1}, "UTLBEntries -1 is negative"},
		{Config{TLBEntries: -512}, "TLBEntries -512 is negative"},
		{Config{TLBAssoc: -4}, "TLBAssoc -4 is negative"},
		{Config{PWCEntries: -2}, "PWCEntries -2 is negative"},
		{Config{Walkers: -1}, "Walkers -1 is negative"},
		{Config{TLBAssoc: 3}, "TLB sets (170) must be a power of two"},
		{Config{TLBEntries: 2, TLBAssoc: 4}, "TLB sets (0) must be a power of two"},
	} {
		err := c.cfg.Validate()
		if (c.want == "") != (err == nil) || (err != nil && err.Error() != c.want) {
			t.Errorf("%+v: Validate = %v, want %q", c.cfg, err, c.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		if r := recover(); r != "smmu smmu: Walkers -1 is negative" {
			t.Fatalf("panic = %v", r)
		}
	}()
	New("smmu", sim.NewEventQueue(), mem.NewPackets(), stats.NewRegistry(), Config{Walkers: -1})
}

func TestAuditReportsUndrainedSMMU(t *testing.T) {
	rg := newRig(t, Config{Walkers: 1})
	rg.tb.Map(0x10_0000, 0x20_0000)
	rg.tb.Map(0x30_0000, 0x40_0000)
	rg.m.RefuseRequests = true
	rg.dev.Send(mem.NewRead(0x10_0000, 4))
	rg.dev.Send(mem.NewRead(0x10_0040, 4)) // joins the first walk
	rg.dev.Send(mem.NewRead(0x30_0000, 4)) // waits for the only walker
	rg.eq.Run()
	err := rg.s.Audit()
	if err == nil || !strings.Contains(err.Error(), "smmu.memq: 1 packets queued, blocked true") ||
		!strings.Contains(err.Error(), "smmu: 1 walks active, 1 queued, 3 packets waiting on a walk") ||
		!strings.Contains(err.Error(), "smmu: 2 walks in flight or their records lost") {
		t.Fatalf("Audit with memory refusing = %v, want the blocked memq and both walks", err)
	}
	rg.dev.RefuseResponses = true
	rg.m.ReleaseRequests()
	rg.eq.Run()
	if err := rg.s.Audit(); err == nil || !strings.Contains(err.Error(), "smmu.respq: 3 packets queued, blocked true") {
		t.Fatalf("Audit with responses refused = %v, want the blocked respq", err)
	}
	rg.dev.ReleaseResponses()
	rg.eq.Run()
	if err := rg.s.Audit(); err != nil || len(rg.dev.Done) != 3 {
		t.Fatalf("Audit after %d of 3 reads: %v", len(rg.dev.Done), err)
	}
	rg.s.getWalk() // a record that never returns to the freelist
	if err := rg.s.Audit(); err == nil || !strings.Contains(err.Error(), "smmu: 1 walks in flight or their records lost") {
		t.Fatalf("Audit with a lost walk record = %v, want it counted", err)
	}
}

// Walk records are recycled: walks that run one after another, each
// with packets waiting on it, share one record and its waiting list.
func TestWalkRecordsRecycled(t *testing.T) {
	rg := newRig(t, Config{Walkers: 1})
	for p := range uint64(6) {
		rg.tb.Map(0x10_0000+p*PageBytes, 0x20_0000+p*PageBytes)
	}
	for p := range uint64(6) {
		rg.dev.Send(mem.NewRead(0x10_0000+p*PageBytes, 4))
		rg.dev.Send(mem.NewRead(0x10_0000+p*PageBytes+64, 4))
		rg.eq.Run()
	}
	if len(rg.dev.Done) != 12 || rg.count("ptws") != 6 {
		t.Fatalf("%d reads done over %v walks, want 12 over 6", len(rg.dev.Done), rg.count("ptws"))
	}
	if rg.s.walksMade != 1 || len(rg.s.walkFree) != 1 || cap(rg.s.walkFree[0].waiting) < 2 {
		t.Fatalf("6 walks made %d records, %d back; want one, back with its waiting list", rg.s.walksMade, len(rg.s.walkFree))
	}
}

// The main TLB holds no entries until a walk fills one: a fresh SMMU
// has no block allocated, a fill allocates the block of its set, and
// a lookup in an unallocated block misses, as on invalid entries.
func TestTLBBlocksAllocatedOnFill(t *testing.T) {
	rg := newRig(t, Config{}) // 128 sets of 4 ways: 8 blocks of 16 sets
	allocated := func() (n int) {
		for _, b := range rg.s.tlb {
			if b != nil {
				n++
			}
		}
		return n
	}
	if len(rg.s.tlb) != 8 || allocated() != 0 {
		t.Fatalf("fresh TLB: %d of %d blocks allocated, want 0 of 8", allocated(), len(rg.s.tlb))
	}
	if _, ok := rg.s.tlbLookup(3); ok || allocated() != 0 {
		t.Fatal("a lookup in an unallocated block hit or allocated it")
	}
	rg.tb.Map(0x10_0000, 0x20_0000) // vpn 0x100: set 0, block 0
	rg.dev.Send(mem.NewRead(0x10_0000, 4))
	rg.eq.Run()
	if allocated() != 1 || len(rg.s.tlb[0]) != 16*4 {
		t.Fatalf("after one walk: %d blocks allocated, block 0 holds %d entries; want 1 of 64", allocated(), len(rg.s.tlb[0]))
	}
	if ppn, ok := rg.s.tlbLookup(0x100); !ok || ppn != 0x200 {
		t.Fatalf("TLB lookup of the walked page = %#x, %v; want 0x200, true", ppn, ok)
	}
}
