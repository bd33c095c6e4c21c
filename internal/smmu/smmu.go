// Package smmu implements the System Memory Management Unit that
// Gem5-AcceSys places between the PCIe root complex and the memory bus:
// device-virtual addresses on upstream traffic are translated to
// physical addresses through a micro-TLB, a main TLB, a page-walk
// cache, and a hardware page-table walker that performs real, timed
// memory reads of the page tables the kernel driver built in host
// memory. Its statistics are the source of the paper's Table IV
// (translation counts and mean times, page-table-walk counts and mean
// times, uTLB lookups/misses).
package smmu

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// PTE layout: bit 0 = valid, bits [63:12] = physical frame of the next
// table level or of the final page.
const (
	pteValid    = uint64(1)
	pteAddrMask = ^uint64(0xfff)
	// PTESize is the size of one page table entry in bytes.
	PTESize = 8
	// EntriesPerTable is the fan-out of each table level.
	EntriesPerTable = 512
	// PageBytes is the translation granule.
	PageBytes = 4096
	// WalkLevels is the page-table depth (48-bit VA, 4 KiB pages).
	WalkLevels = 4
)

// MakePTE encodes a valid entry pointing at a physical address.
func MakePTE(phys uint64) uint64 { return (phys & pteAddrMask) | pteValid }

// PTEValid reports whether an entry is valid.
func PTEValid(pte uint64) bool { return pte&pteValid != 0 }

// PTEAddr extracts the physical address of an entry.
func PTEAddr(pte uint64) uint64 { return pte & pteAddrMask }

// vaIndex returns the table index of va at the given level
// (level 0 is the root).
func vaIndex(va uint64, level int) uint64 {
	shift := uint(12 + 9*(WalkLevels-1-level))
	return (va >> shift) & (EntriesPerTable - 1)
}

// Config parameterizes the SMMU.
type Config struct {
	// Bypass disables translation (physical addressing).
	Bypass bool
	// UTLBEntries sizes the fully-associative micro TLB (default 32).
	UTLBEntries int
	// TLBEntries/TLBAssoc size the main TLB (default 512, 4-way).
	TLBEntries int
	TLBAssoc   int
	// PWCEntries sizes the page-walk cache (default 64).
	PWCEntries int
	// Latencies.
	UTLBLatency sim.Tick // default 1 ns
	TLBLatency  sim.Tick // default 4 ns
	// Walkers bounds concurrent page-table walks (default 2).
	Walkers int
}

func (c *Config) setDefaults() {
	if c.UTLBEntries == 0 {
		c.UTLBEntries = 32
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 512
	}
	if c.TLBAssoc == 0 {
		c.TLBAssoc = 4
	}
	if c.PWCEntries == 0 {
		c.PWCEntries = 64
	}
	if c.UTLBLatency == 0 {
		c.UTLBLatency = sim.Nanosecond
	}
	if c.TLBLatency == 0 {
		c.TLBLatency = 4 * sim.Nanosecond
	}
	if c.Walkers == 0 {
		c.Walkers = 2
	}
}

// Resolved returns the configuration with every zero field replaced
// by its default — what an assembled SMMU actually runs with. The
// analytic backend derives its translation-stall term from this.
func (c Config) Resolved() Config {
	c.setDefaults()
	return c
}

// Validate checks the resolved configuration: no entry, associativity
// or walker count is negative, and the main TLB has a power-of-two
// number of sets.
func (c Config) Validate() error {
	c.setDefaults()
	for _, f := range []struct {
		name string
		n    int
	}{
		{"UTLBEntries", c.UTLBEntries},
		{"TLBEntries", c.TLBEntries},
		{"TLBAssoc", c.TLBAssoc},
		{"PWCEntries", c.PWCEntries},
		{"Walkers", c.Walkers},
	} {
		if f.n < 0 {
			return fmt.Errorf("%s %d is negative", f.name, f.n)
		}
	}
	if sets := c.TLBEntries / c.TLBAssoc; sets == 0 || !mem.IsPow2(uint64(sets)) {
		return fmt.Errorf("TLB sets (%d) must be a power of two", sets)
	}
	return nil
}

type utlbEntry struct {
	vpn, ppn uint64
	lastUse  uint64
}

// tlbEntry is one main-TLB way; lastUse is zero while it is invalid.
type tlbEntry struct {
	vpn, ppn uint64
	lastUse  uint64
}

type pwcEntry struct {
	key     uint64 // level-tagged VA prefix
	base    uint64 // physical table base it resolves to
	level   int
	lastUse uint64
}

// walk tracks one in-flight page-table walk. Records are recycled
// through the SMMU's freelist, waiting list included.
type walk struct {
	vpn     uint64
	level   int
	base    uint64
	started sim.Tick
	waiting []pendingPkt // packets stalled on this walk
}

// pendingPkt pairs a stalled packet with its arrival tick so the
// translation latency statistic covers exactly the stall.
type pendingPkt struct {
	pkt     *mem.Packet
	arrived sim.Tick
}

// SMMU bridges device traffic into the host memory system, translating
// request addresses. One upstream-facing response port receives device
// requests (from the PCIe RC); one downstream-facing request port
// issues translated requests and page-table walks.
type SMMU struct {
	name string
	eq   *sim.EventQueue
	pkts *mem.Packets
	cfg  Config

	devPort *mem.ResponsePort
	memPort *mem.RequestPort
	memQ    *mem.PacketQueue
	respQ   *mem.PacketQueue

	rootTable uint64
	haveRoot  bool

	utlb []utlbEntry
	// tlb holds the main TLB set-major in blocks of B = 1<<tlbBlockShift
	// consecutive sets: set i owns TLBAssoc ways from way (i%B)*TLBAssoc
	// of tlb[i/B]. A block stays nil, and every lookup in it misses as
	// on invalid entries, until the first fill of one of its sets, so a
	// build allocates no TLB and a run only the blocks of the pages it
	// touches. Entries hold no pointers, so the garbage collector never
	// scans a block.
	tlb           [][]tlbEntry
	tlbSetMask    uint64
	tlbBlockShift uint
	pwc           []pwcEntry
	useCtr        uint64

	walks       map[uint64]*walk // by vpn
	activeWalks int
	// walkQueue holds the walks waiting for a walker, oldest first; it
	// is popped by shifting down, so its array is reused.
	walkQueue []*walk

	// walkFree recycles walk records; walksMade counts the records ever
	// created, and Audit expects all of them back.
	walkFree  []*walk
	walksMade int

	needRetry bool

	translations *stats.Counter
	utlbLookups  *stats.Counter
	utlbMisses   *stats.Counter
	tlbMisses    *stats.Counter
	ptws         *stats.Counter
	transLat     *stats.Distribution
	ptwLat       *stats.Distribution
	stallTime    *stats.Scalar
}

// passThrough is stacked on translated (or bypassed) requests; it is
// zero-size so boxing it into the packet state stack never allocates.
type passThrough struct{}

// New builds an SMMU whose walker leases its PTE reads from pkts.
func New(name string, eq *sim.EventQueue, pkts *mem.Packets, reg *stats.Registry, cfg Config) *SMMU {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("smmu %s: %v", name, err))
	}
	cfg.setDefaults()
	numSets := cfg.TLBEntries / cfg.TLBAssoc
	blockShift := min(maxTLBBlockShift, mem.Log2(uint64(numSets)))
	s := &SMMU{
		name:          name,
		eq:            eq,
		pkts:          pkts,
		cfg:           cfg,
		tlb:           make([][]tlbEntry, numSets>>blockShift),
		tlbSetMask:    uint64(numSets - 1),
		tlbBlockShift: blockShift,
		walks:         make(map[uint64]*walk),
	}
	s.devPort = mem.NewResponsePort(name+".dev", s)
	s.memPort = mem.NewRequestPort(name+".mem", s)
	s.memQ = mem.NewPacketQueue(name+".memq", eq, func(p *mem.Packet) bool {
		return s.memPort.SendTimingReq(p)
	})
	s.respQ = mem.NewPacketQueue(name+".respq", eq, func(p *mem.Packet) bool {
		return s.devPort.SendTimingResp(p)
	})

	g := reg.Group(name)
	s.translations = g.Counter("translations", "address translations performed")
	s.utlbLookups = g.Counter("utlb_lookups", "micro-TLB lookups")
	s.utlbMisses = g.Counter("utlb_misses", "micro-TLB misses")
	s.tlbMisses = g.Counter("tlb_misses", "main TLB misses")
	s.ptws = g.Counter("ptws", "page table walks")
	s.transLat = g.Distribution("trans_ns", "translation latency")
	s.ptwLat = g.Distribution("ptw_ns", "page table walk latency")
	s.stallTime = g.Scalar("stall_ns", "total translation stall time")
	return s
}

// DevPort faces the PCIe root complex (device traffic in).
func (s *SMMU) DevPort() *mem.ResponsePort { return s.devPort }

// MemPort faces the host memory system.
func (s *SMMU) MemPort() *mem.RequestPort { return s.memPort }

// SetRootTable programs the page-table base register (driver writes it
// through the control plane).
func (s *SMMU) SetRootTable(phys uint64) {
	s.rootTable = phys
	s.haveRoot = true
}

// Audit reports the state an SMMU must not hold once its run has
// drained: queued or blocked packets, a walk still active or queued,
// packets still waiting on a walk, and walk records not back on the
// freelist.
func (s *SMMU) Audit() error {
	errs := []error{s.memQ.Audit(s.name + ".memq"), s.respQ.Audit(s.name + ".respq")}
	waiting := 0
	for _, w := range s.walks {
		waiting += len(w.waiting)
	}
	if s.activeWalks != 0 || len(s.walkQueue) != 0 || waiting != 0 {
		errs = append(errs, fmt.Errorf("%s: %d walks active, %d queued, %d packets waiting on a walk",
			s.name, s.activeWalks, len(s.walkQueue), waiting))
	}
	if n := s.walksMade - len(s.walkFree); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d walks in flight or their records lost", s.name, n))
	}
	return errors.Join(errs...)
}

func (s *SMMU) utlbLookup(vpn uint64) (uint64, bool) {
	s.utlbLookups.Inc()
	for i := range s.utlb {
		if s.utlb[i].vpn == vpn {
			s.useCtr++
			s.utlb[i].lastUse = s.useCtr
			return s.utlb[i].ppn, true
		}
	}
	s.utlbMisses.Inc()
	return 0, false
}

func (s *SMMU) utlbFill(vpn, ppn uint64) {
	s.useCtr++
	if len(s.utlb) < s.cfg.UTLBEntries {
		s.utlb = append(s.utlb, utlbEntry{vpn: vpn, ppn: ppn, lastUse: s.useCtr})
		return
	}
	lru := 0
	for i := range s.utlb {
		if s.utlb[i].lastUse < s.utlb[lru].lastUse {
			lru = i
		}
	}
	s.utlb[lru] = utlbEntry{vpn: vpn, ppn: ppn, lastUse: s.useCtr}
}

// maxTLBBlockShift is log2 of the sets a main-TLB block holds, unless
// the TLB has fewer sets.
const maxTLBBlockShift = 4

// tlbSet returns the ways of vpn's main-TLB set: none while its block
// is unallocated, unless fill allocates it.
func (s *SMMU) tlbSet(vpn uint64, fill bool) []tlbEntry {
	set := vpn & s.tlbSetMask
	k := set >> s.tlbBlockShift
	if s.tlb[k] == nil {
		if !fill {
			return nil
		}
		s.tlb[k] = make([]tlbEntry, s.cfg.TLBAssoc<<s.tlbBlockShift)
	}
	base := int(set&(1<<s.tlbBlockShift-1)) * s.cfg.TLBAssoc
	return s.tlb[k][base : base+s.cfg.TLBAssoc]
}

func (s *SMMU) tlbLookup(vpn uint64) (uint64, bool) {
	set := s.tlbSet(vpn, false)
	for i := range set {
		if set[i].lastUse != 0 && set[i].vpn == vpn {
			s.useCtr++
			set[i].lastUse = s.useCtr
			return set[i].ppn, true
		}
	}
	return 0, false
}

func (s *SMMU) tlbFill(vpn, ppn uint64) {
	set := s.tlbSet(vpn, true)
	vi := 0
	for i := range set {
		if set[i].lastUse == 0 {
			vi = i
			break
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	s.useCtr++
	set[vi] = tlbEntry{vpn: vpn, ppn: ppn, lastUse: s.useCtr}
}

// pwcKey tags a VA prefix with the level whose table base it resolves:
// the table consulted at level L is determined by the indices of
// levels 0..L-1, so the key drops the low 9*(WalkLevels-L) vpn bits.
func pwcKey(vpn uint64, level int) uint64 {
	prefix := vpn >> uint(9*(WalkLevels-level))
	return prefix<<3 | uint64(level)
}

func (s *SMMU) pwcLookup(vpn uint64) (level int, base uint64, ok bool) {
	// Prefer the deepest cached level.
	for lv := WalkLevels - 1; lv >= 1; lv-- {
		key := pwcKey(vpn, lv)
		for i := range s.pwc {
			if s.pwc[i].key == key {
				s.useCtr++
				s.pwc[i].lastUse = s.useCtr
				return lv, s.pwc[i].base, true
			}
		}
	}
	return 0, 0, false
}

func (s *SMMU) pwcFill(vpn uint64, level int, base uint64) {
	e := pwcEntry{key: pwcKey(vpn, level), base: base, level: level}
	s.useCtr++
	e.lastUse = s.useCtr
	for i := range s.pwc {
		if s.pwc[i].key == e.key {
			s.pwc[i] = e
			return
		}
	}
	if len(s.pwc) < s.cfg.PWCEntries {
		s.pwc = append(s.pwc, e)
		return
	}
	lru := 0
	for i := range s.pwc {
		if s.pwc[i].lastUse < s.pwc[lru].lastUse {
			lru = i
		}
	}
	s.pwc[lru] = e
}

// RecvTimingReq implements mem.Responder: device request in.
func (s *SMMU) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	if s.memQ.Len() >= 64 {
		s.needRetry = true
		return false
	}
	now := s.eq.Now()

	if s.cfg.Bypass {
		pkt.PushState(passThrough{})
		s.memQ.Schedule(pkt, now)
		return true
	}
	if !s.haveRoot {
		panic(fmt.Sprintf("smmu %s: translation requested before SetRootTable", s.name))
	}
	if pkt.Addr%PageBytes+uint64(pkt.Size) > PageBytes {
		panic(fmt.Sprintf("smmu %s: %v crosses a page boundary; the DMA engine must split bursts at pages", s.name, pkt))
	}

	s.translations.Inc()
	vpn := pkt.Addr / PageBytes

	if ppn, ok := s.utlbLookup(vpn); ok {
		s.finishTranslation(pkt, vpn, ppn, now, s.cfg.UTLBLatency)
		return true
	}
	if ppn, ok := s.tlbLookup(vpn); ok {
		s.utlbFill(vpn, ppn)
		s.finishTranslation(pkt, vpn, ppn, now, s.cfg.UTLBLatency+s.cfg.TLBLatency)
		return true
	}
	s.tlbMisses.Inc()

	// Coalesce with an in-flight walk for the same page.
	if w, ok := s.walks[vpn]; ok {
		w.waiting = append(w.waiting, pendingPkt{pkt: pkt, arrived: now})
		return true
	}
	w := s.getWalk()
	w.vpn, w.started = vpn, now
	w.waiting = append(w.waiting, pendingPkt{pkt: pkt, arrived: now})
	if level, base, ok := s.pwcLookup(vpn); ok {
		w.level, w.base = level, base
	} else {
		w.level, w.base = 0, s.rootTable
	}
	s.walks[vpn] = w
	s.ptws.Inc()
	if s.activeWalks < s.cfg.Walkers {
		s.activeWalks++
		s.stepWalk(w)
	} else {
		s.walkQueue = append(s.walkQueue, w)
	}
	return true
}

// finishTranslation rewrites the packet address and forwards it.
func (s *SMMU) finishTranslation(pkt *mem.Packet, vpn, ppn uint64, now sim.Tick, lat sim.Tick) {
	pkt.Vaddr = pkt.Addr
	pkt.Addr = ppn*PageBytes + pkt.Addr%PageBytes
	pkt.PushState(passThrough{})
	s.transLat.Sample(float64(lat) / float64(sim.Nanosecond))
	s.stallTime.Add(float64(lat) / float64(sim.Nanosecond))
	s.memQ.Schedule(pkt, now+lat)
}

// stepWalk issues the next PTE read of a walk.
func (s *SMMU) stepWalk(w *walk) {
	ptAddr := w.base + vaIndex(w.vpn*PageBytes, w.level)*PTESize
	rd := s.pkts.NewRead(ptAddr, PTESize)
	rd.PushState(w)
	s.memQ.Schedule(rd, s.eq.Now()+s.cfg.TLBLatency)
}

// RecvTimingResp implements mem.Requestor: translated-request
// responses and PTE reads come back.
func (s *SMMU) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	switch st := pkt.PopState().(type) {
	case passThrough:
		// Restore the device-visible address on the response.
		if pkt.Vaddr != 0 {
			pkt.Addr = pkt.Vaddr
		}
		s.respQ.Schedule(pkt, s.eq.Now())
		s.retryAfterFree()
		return true
	case *walk:
		s.walkStepDone(st, pkt)
		pkt.Release() // PTE read originated by the walker; consumed here
		return true
	default:
		panic(fmt.Sprintf("smmu %s: unexpected response state %T", s.name, st))
	}
}

func (s *SMMU) walkStepDone(w *walk, pte *mem.Packet) {
	var v uint64
	for i := 0; i < PTESize; i++ {
		v |= uint64(pte.Data[i]) << (8 * i)
	}
	if !PTEValid(v) {
		panic(fmt.Sprintf("smmu %s: fault: invalid PTE at level %d for vpn %#x", s.name, w.level, w.vpn))
	}
	next := PTEAddr(v)
	w.level++
	if w.level < WalkLevels {
		w.base = next
		s.pwcFill(w.vpn, w.level, next)
		s.stepWalk(w)
		return
	}

	// Leaf: translation complete.
	ppn := next / PageBytes
	now := s.eq.Now()
	walkTime := now - w.started
	s.ptwLat.Sample(float64(walkTime) / float64(sim.Nanosecond))
	s.tlbFill(w.vpn, ppn)
	s.utlbFill(w.vpn, ppn)
	for _, pp := range w.waiting {
		pkt := pp.pkt
		lat := now - pp.arrived + s.cfg.UTLBLatency
		s.transLat.Sample(float64(lat) / float64(sim.Nanosecond))
		s.stallTime.Add(float64(lat) / float64(sim.Nanosecond))
		pkt.Vaddr = pkt.Addr
		pkt.Addr = ppn*PageBytes + pkt.Addr%PageBytes
		pkt.PushState(passThrough{})
		s.memQ.Schedule(pkt, now+s.cfg.UTLBLatency)
	}
	delete(s.walks, w.vpn)
	s.putWalk(w)

	if len(s.walkQueue) > 0 {
		nw := s.walkQueue[0]
		n := copy(s.walkQueue, s.walkQueue[1:])
		s.walkQueue[n] = nil
		s.walkQueue = s.walkQueue[:n]
		s.stepWalk(nw)
	} else {
		s.activeWalks--
	}
	s.retryAfterFree()
}

// getWalk leases a walk record from the freelist.
func (s *SMMU) getWalk() *walk {
	if n := len(s.walkFree); n > 0 {
		w := s.walkFree[n-1]
		s.walkFree[n-1] = nil
		s.walkFree = s.walkFree[:n-1]
		return w
	}
	s.walksMade++
	return &walk{}
}

// putWalk returns a finished walk's record, keeping its waiting list's
// array.
func (s *SMMU) putWalk(w *walk) {
	clear(w.waiting)
	*w = walk{waiting: w.waiting[:0]}
	s.walkFree = append(s.walkFree, w)
}

func (s *SMMU) retryAfterFree() {
	if !s.needRetry {
		return
	}
	s.needRetry = false
	s.devPort.SendRetryReq()
}

// RecvRetryReq implements mem.Requestor.
func (s *SMMU) RecvRetryReq(port *mem.RequestPort) { s.memQ.RetryReceived() }

// RecvRetryResp implements mem.Responder.
func (s *SMMU) RecvRetryResp(port *mem.ResponsePort) { s.respQ.RetryReceived() }

var _ mem.Requestor = (*SMMU)(nil)
var _ mem.Responder = (*SMMU)(nil)
