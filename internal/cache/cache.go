// Package cache implements the configurable cache hierarchy of the
// framework: set-associative, write-back, write-allocate, non-blocking
// caches with MSHRs, used for the L1 data/instruction caches, the
// shared last-level cache (LLC), the IOCache on the PCIe path, and the
// device-side cache.
//
// Coherence between the CPU caches and the accelerator path (the
// paper's "cache coherency model between the accelerator's cache and
// the CPU cache") is a snooping MSI protocol resolved atomically at the
// LLC: upper-level caches register as Snoopers; every request accepted
// by the LLC invalidates (writes) or downgrades (reads) the line in all
// upper caches, pulling dirty data down with a configurable snoop
// latency. State transitions are ordered at the coherence point and
// take effect immediately while data movement is timed — the standard
// atomic-snoop simplification. Two documented relaxations: a write hit
// on a clean upper-level line does not broadcast an upgrade, and a
// snoop cannot intercept a fill already in flight to an upper cache;
// the workloads' phase-separated sharing (CPU writes, then DMA reads)
// never exercises either race, and the DM access method instead uses
// explicit driver-managed flushes as the paper prescribes.
package cache

import (
	"bytes"
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Snooper is implemented by upper-level caches participating in
// coherence at a lower-level coherence point.
type Snooper interface {
	// SnoopInvalidate removes the line; it returns the dirty data if
	// the line was modified.
	SnoopInvalidate(lineAddr uint64) (wasDirty bool, data []byte)
	// SnoopDowngrade demotes Modified to Shared; it returns the dirty
	// data if the line was modified. Clean/absent lines are untouched.
	SnoopDowngrade(lineAddr uint64) (wasDirty bool, data []byte)
}

// Config parameterizes a Cache.
type Config struct {
	SizeBytes int
	Assoc     int
	LineBytes int // default 64, at most 4096
	// HitLatency is lookup-to-data for hits and lookup-to-fill-issue
	// for misses.
	HitLatency sim.Tick
	// ResponseLatency is added between fill arrival and response.
	ResponseLatency sim.Tick
	// SnoopLatency is added when a snoop returns dirty data.
	SnoopLatency sim.Tick
	// MSHRs bounds outstanding line fills (default 8).
	MSHRs int
	// MemQueueDepth bounds queued downstream packets (default 32).
	MemQueueDepth int
}

func (c *Config) setDefaults() {
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	if c.MemQueueDepth == 0 {
		c.MemQueueDepth = 32
	}
	if c.HitLatency == 0 {
		c.HitLatency = 2 * sim.Nanosecond
	}
	if c.ResponseLatency == 0 {
		c.ResponseLatency = sim.Nanosecond
	}
	if c.SnoopLatency == 0 {
		c.SnoopLatency = 4 * sim.Nanosecond
	}
}

// Validate checks the resolved configuration: size, associativity,
// MSHRs and queue depth are positive, the line is a power of two of at
// most 4096 bytes, and the set count is a power of two. Each error
// names its field.
func (c Config) Validate() error {
	c.setDefaults()
	for _, f := range []struct {
		name string
		n    int
	}{
		{"SizeBytes", c.SizeBytes},
		{"Assoc", c.Assoc},
		{"LineBytes", c.LineBytes},
		{"MSHRs", c.MSHRs},
		{"MemQueueDepth", c.MemQueueDepth},
	} {
		if f.n <= 0 {
			return fmt.Errorf("%s %d is not positive", f.name, f.n)
		}
	}
	if !mem.IsPow2(uint64(c.LineBytes)) || c.LineBytes > maxLineBytes {
		return fmt.Errorf("LineBytes %d is not a power of two of at most %d", c.LineBytes, maxLineBytes)
	}
	if sets := c.SizeBytes / (c.Assoc * c.LineBytes); sets == 0 || !mem.IsPow2(uint64(sets)) {
		return fmt.Errorf("SizeBytes %d / (Assoc %d * LineBytes %d) gives %d sets, not a power of two",
			c.SizeBytes, c.Assoc, c.LineBytes, sets)
	}
	return nil
}

// line is the state of one way in 16 bytes. It holds no pointers, so a
// block of lines is an allocation the garbage collector never scans;
// the payload, if the line has one, lives apart (see Cache.payloads).
type line struct {
	tag uint64
	// stamp is zero while the line is invalid. Otherwise bit 0 is
	// dirtyBit, bit 1 is payloadBit, and the bits above them are the
	// line's last use, a count no other line of the cache shares.
	stamp uint64
}

const (
	dirtyBit = 1
	// payloadBit marks a line whose bytes are in Cache.payloads; every
	// other valid line reads as zeros.
	payloadBit = 2
	flagBits   = dirtyBit | payloadBit
	useShift   = 2
)

func (l *line) valid() bool     { return l.stamp != 0 }
func (l *line) dirty() bool     { return l.stamp&dirtyBit != 0 }
func (l *line) lastUse() uint64 { return l.stamp >> useShift }

// txn tracks one original packet that may span several lines.
type txn struct {
	pkt       *mem.Packet
	remaining int
	finish    sim.Tick
}

// target is one line-sized slice of a transaction waiting on a fill.
type target struct {
	t       *txn
	pktOff  int
	lineOff int
	n       int
	isWrite bool
}

type mshr struct {
	lineAddr uint64
	targets  []target
}

type wbState struct{}
type bypassState struct{}

// Cache is one cache level with a single upstream (cpu-side) response
// port and a single downstream (mem-side) request port.
type Cache struct {
	name string
	eq   *sim.EventQueue
	pkts *mem.Packets
	cfg  Config

	cpuPort *mem.ResponsePort
	memPort *mem.RequestPort
	memQ    *mem.PacketQueue // downstream requests
	respQ   *mem.PacketQueue // upstream responses

	// blocks holds the line state set-major, blockSets sets per block:
	// in a block w ways wide, set s owns lines [(s%blockSets)*w,
	// (s%blockSets+1)*w) of blocks[s/blockSets], so a lookup reads one
	// contiguous run. A block stays nil, and every lookup in it misses,
	// until the first fill of one of its sets; a small run fills a few
	// blocks and a build allocates none. A block starts narrowWays wide
	// and is rewritten at full associativity when one of its sets needs
	// another valid way, so a run that uses one or two ways of every
	// set holds one or two ways' worth of line state.
	blocks     [][]line
	setMask    uint64
	setShift   uint
	lineShift  uint
	useCounter uint64

	// payloads holds the payload of each line whose payloadBit is set,
	// keyed by payloadKey of its slot. A line gets one when it first
	// stores a non-zero byte and gives it back when it is replaced or
	// invalidated, so a zero line costs no lookup on any path, and a
	// timing-only run, whose operands are zeros, holds payloads only
	// for the page-table lines and the few other words it writes. The
	// map is made on the first payload. spare keeps the given-back
	// payloads, cleared, for the next line that needs one.
	payloads map[int][]byte
	spare    [][]byte

	// mshrs holds the outstanding fills, at most cfg.MSHRs (the
	// admission check guarantees it); it is only searched, never
	// iterated in order, so removal swaps with the last entry.
	mshrs     []*mshr
	needRetry bool

	// txnFree/mshrFree recycle transaction and miss records so the
	// steady-state request path does not allocate. mshrsMade counts
	// the miss records ever created; Audit expects all of them back.
	txnFree   []*txn
	mshrFree  []*mshr
	mshrsMade int

	snoopers []Snooper
	downFunc mem.Functional

	hits       *stats.Counter
	misses     *stats.Counter
	evictions  *stats.Counter
	writebacks *stats.Counter
	snoopDirty *stats.Counter
	bypasses   *stats.Counter
}

// New builds a cache and registers statistics under name. Fills and
// writebacks are leased from pkts, the system's packet freelist.
func New(name string, eq *sim.EventQueue, pkts *mem.Packets, reg *stats.Registry, cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache %s: %v", name, err))
	}
	cfg.setDefaults()
	numSets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	c := &Cache{
		name:      name,
		eq:        eq,
		pkts:      pkts,
		cfg:       cfg,
		blocks:    make([][]line, (numSets+blockSets-1)/blockSets),
		mshrs:     make([]*mshr, 0, cfg.MSHRs),
		setMask:   uint64(numSets - 1),
		setShift:  mem.Log2(uint64(numSets)),
		lineShift: mem.Log2(uint64(cfg.LineBytes)),
	}
	c.cpuPort = mem.NewResponsePort(name+".cpu", c)
	c.memPort = mem.NewRequestPort(name+".mem", c)
	c.memQ = mem.NewPacketQueue(name+".memq", eq, func(p *mem.Packet) bool {
		return c.memPort.SendTimingReq(p)
	})
	c.memQ.OnDrain = func() { c.retryAfterFree() }
	c.respQ = mem.NewPacketQueue(name+".respq", eq, func(p *mem.Packet) bool {
		return c.cpuPort.SendTimingResp(p)
	})

	g := reg.Group(name)
	c.hits = g.Counter("hits", "line accesses that hit")
	c.misses = g.Counter("misses", "line accesses that missed")
	c.evictions = g.Counter("evictions", "lines evicted")
	c.writebacks = g.Counter("writebacks", "dirty lines written back")
	c.snoopDirty = g.Counter("snoop_dirty", "snoops that returned dirty data")
	c.bypasses = g.Counter("bypasses", "uncacheable packets forwarded")
	g.Formula("hit_rate", "hit fraction", func() float64 {
		tot := c.hits.Value() + c.misses.Value()
		if tot == 0 {
			return 0
		}
		return c.hits.Value() / tot
	})
	return c
}

// CPUPort returns the upstream-facing response port.
func (c *Cache) CPUPort() *mem.ResponsePort { return c.cpuPort }

// MemPort returns the downstream-facing request port.
func (c *Cache) MemPort() *mem.RequestPort { return c.memPort }

// RegisterSnooper adds an upper-level cache to this cache's coherence
// domain (used on the LLC).
func (c *Cache) RegisterSnooper(s Snooper) { c.snoopers = append(c.snoopers, s) }

// SetDownstreamFunctional wires the functional backdoor target below
// this cache.
func (c *Cache) SetDownstreamFunctional(f mem.Functional) { c.downFunc = f }

func (c *Cache) lineBytes() uint64 { return uint64(c.cfg.LineBytes) }

func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) & c.setMask)
}

// slot names one way of one set.
type slot struct{ set, way int }

// blockSets is the number of consecutive sets whose line state is
// allocated at once; narrowWays is how many ways each of them holds
// until one needs more.
const (
	blockShift = 4
	blockSets  = 1 << blockShift
	narrowWays = 2
)

// ways returns the lines a set holds: none while its block is
// unallocated, otherwise its block's width of ways.
func (c *Cache) ways(set int) []line {
	b := c.blocks[set>>blockShift]
	w := len(b) >> blockShift
	i := (set & (blockSets - 1)) * w
	return b[i : i+w]
}

// line returns the state of a slot, whose block must hold its way.
func (c *Cache) line(s slot) *line {
	b := c.blocks[s.set>>blockShift]
	return &b[(s.set&(blockSets-1))*(len(b)>>blockShift)+s.way]
}

// widen rewrites block k at full associativity; every set keeps its
// lines in their ways, and the ways added are invalid.
func (c *Cache) widen(k int) {
	narrow, assoc := c.blocks[k], c.cfg.Assoc
	w := len(narrow) >> blockShift
	wide := make([]line, blockSets*assoc)
	for s := range blockSets {
		copy(wide[s*assoc:], narrow[s*w:(s+1)*w])
	}
	c.blocks[k] = wide
}

// maxLineBytes bounds the line size, so that zeroLine covers any line.
const maxLineBytes = 4096

// zeroLine is what a line without a payload reads as. Nothing writes to
// it.
var zeroLine [maxLineBytes]byte

// payloadKey names a slot in Cache.payloads. A slot keeps its way when
// its block widens, so the key stays valid.
func (c *Cache) payloadKey(s slot) int { return s.way<<c.setShift | s.set }

// data returns the payload of slot s, whose line is l, for reading:
// zeroLine unless the line has a payload.
func (c *Cache) data(s slot, l *line) []byte {
	if l.stamp&payloadBit == 0 {
		return zeroLine[:c.cfg.LineBytes]
	}
	return c.payloads[c.payloadKey(s)]
}

// store copies src into the payload of slot s, whose valid line is l,
// from byte off of the line on. Storing only zeros into a line without
// a payload changes nothing it reads, so a payload is taken only to
// hold a non-zero byte.
func (c *Cache) store(s slot, l *line, off int, src []byte) {
	src = src[:min(len(src), c.cfg.LineBytes-off)]
	if l.stamp&payloadBit != 0 {
		copy(c.payloads[c.payloadKey(s)][off:], src)
		return
	}
	if bytes.Equal(src, zeroLine[:len(src)]) {
		return
	}
	var p []byte
	if n := len(c.spare); n > 0 {
		p = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	} else {
		p = make([]byte, c.cfg.LineBytes)
	}
	if c.payloads == nil {
		c.payloads = make(map[int][]byte)
	}
	c.payloads[c.payloadKey(s)] = p
	copy(p[off:], src)
	l.stamp |= payloadBit
}

// dropPayload gives back the payload of slot s, whose line is l, if it
// has one; the line then reads as zeros. A line that is replaced or
// invalidated drops its payload first, since an invalid line's stamp
// keeps no flag.
func (c *Cache) dropPayload(s slot, l *line) {
	if l.stamp&payloadBit == 0 {
		return
	}
	k := c.payloadKey(s)
	p := c.payloads[k]
	delete(c.payloads, k)
	clear(p)
	c.spare = append(c.spare, p)
	l.stamp &^= payloadBit
}

// lookup finds the valid line holding lineAddr.
func (c *Cache) lookup(lineAddr uint64) (slot, bool) {
	set := c.setIndex(lineAddr)
	ways := c.ways(set)
	for w := range ways {
		if ways[w].tag == lineAddr && ways[w].valid() {
			return slot{set, w}, true
		}
	}
	return slot{}, false
}

// victim picks a line to replace in lineAddr's set, writing back dirty
// victims, and returns a zeroed line bound to lineAddr. The choice is
// the lowest invalid way of all Assoc, else the least recently used:
// a narrow block's missing ways are invalid, so a set whose held ways
// are all valid widens its block and takes the first way added.
func (c *Cache) victim(lineAddr uint64) slot {
	set := c.setIndex(lineAddr)
	k := set >> blockShift
	if c.blocks[k] == nil {
		c.blocks[k] = make([]line, blockSets*min(narrowWays, c.cfg.Assoc))
	}
	ways := c.ways(set)
	vi := 0
	for i := range ways {
		if !ways[i].valid() {
			vi = i
			break
		}
		if ways[i].lastUse() < ways[vi].lastUse() {
			vi = i
		}
	}
	if ways[vi].valid() && len(ways) < c.cfg.Assoc {
		vi = len(ways)
		c.widen(k)
		ways = c.ways(set)
	}
	s := slot{set, vi}
	v := &ways[vi]
	if v.valid() {
		c.evictions.Inc()
		if v.dirty() {
			// The writeback carries its own copy of the line, so the
			// way can be refilled at once.
			c.writebacks.Inc()
			wb := c.pkts.NewWriteSize(v.tag, c.cfg.LineBytes)
			copy(wb.AllocData(), c.data(s, v))
			wb.PushState(wbState{})
			c.memQ.Schedule(wb, c.eq.Now())
		}
		c.dropPayload(s, v)
	}
	v.tag = lineAddr
	v.stamp = 0
	c.touch(v)
	return s
}

// touch makes l the cache's most recently used line, which also makes
// it valid; its flags are kept.
func (c *Cache) touch(l *line) {
	c.useCounter++
	l.stamp = c.useCounter<<useShift | l.stamp&flagBits
}

// apply copies data between a packet segment and a cache line. A read
// marked NoPayload copies nothing.
func (c *Cache) apply(s slot, tg target) {
	l := c.line(s)
	pkt := tg.t.pkt
	if tg.isWrite {
		if pkt.Data != nil {
			c.store(s, l, tg.lineOff, pkt.Data[tg.pktOff:tg.pktOff+tg.n])
		}
		l.stamp |= dirtyBit
	} else if !pkt.NoPayload {
		copy(pkt.AllocData()[tg.pktOff:tg.pktOff+tg.n], c.data(s, l)[tg.lineOff:tg.lineOff+tg.n])
	}
	c.touch(l)
}

func (c *Cache) lineDone(t *txn, at sim.Tick) {
	if at > t.finish {
		t.finish = at
	}
	t.remaining--
	if t.remaining == 0 {
		t.pkt.MakeResponse()
		c.respQ.Schedule(t.pkt, t.finish)
		c.putTxn(t)
	}
}

func (c *Cache) getTxn() *txn {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree[n-1] = nil
		c.txnFree = c.txnFree[:n-1]
		return t
	}
	return &txn{}
}

func (c *Cache) putTxn(t *txn) {
	*t = txn{}
	c.txnFree = append(c.txnFree, t)
}

func (c *Cache) getMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	c.mshrsMade++
	return &mshr{}
}

func (c *Cache) putMSHR(m *mshr) {
	clear(m.targets)
	m.targets = m.targets[:0]
	m.lineAddr = 0
	c.mshrFree = append(c.mshrFree, m)
}

// findMSHR returns the index in c.mshrs of the fill outstanding for
// lineAddr, or -1.
func (c *Cache) findMSHR(lineAddr uint64) int {
	for i, m := range c.mshrs {
		if m.lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// snoopLine consults all registered snoopers for a line; returns dirty
// data if any upper cache owned it.
func (c *Cache) snoopLine(lineAddr uint64, isWrite bool) (bool, []byte) {
	var gotDirty bool
	var dirtyData []byte
	for _, sn := range c.snoopers {
		var d bool
		var data []byte
		if isWrite {
			d, data = sn.SnoopInvalidate(lineAddr)
		} else {
			d, data = sn.SnoopDowngrade(lineAddr)
		}
		if d {
			gotDirty = true
			dirtyData = data
			c.snoopDirty.Inc()
		}
	}
	return gotDirty, dirtyData
}

// RecvTimingReq implements mem.Responder.
func (c *Cache) RecvTimingReq(port *mem.ResponsePort, pkt *mem.Packet) bool {
	lb := c.lineBytes()
	now := c.eq.Now()

	if pkt.Uncacheable {
		if c.memQ.Len() >= c.cfg.MemQueueDepth {
			c.needRetry = true
			return false
		}
		c.bypasses.Inc()
		pkt.PushState(bypassState{})
		c.memQ.Schedule(pkt, now+c.cfg.HitLatency)
		return true
	}

	// Admission: worst case every covered line needs a new MSHR.
	first := mem.AlignDown(pkt.Addr, lb)
	last := mem.AlignDown(pkt.Addr+uint64(pkt.Size)-1, lb)
	linesCovered := int((last-first)/lb) + 1
	if len(c.mshrs)+linesCovered > c.cfg.MSHRs || c.memQ.Len() >= c.cfg.MemQueueDepth {
		c.needRetry = true
		return false
	}

	isWrite := pkt.Cmd.IsWrite()
	if pkt.Cmd.IsRead() && !pkt.NoPayload {
		pkt.AllocData()
	}
	t := c.getTxn()
	t.pkt, t.remaining = pkt, linesCovered

	for la := first; la <= last; la += lb {
		ovStart := la
		if pkt.Addr > ovStart {
			ovStart = pkt.Addr
		}
		ovEnd := la + lb
		if pkt.Addr+uint64(pkt.Size) < ovEnd {
			ovEnd = pkt.Addr + uint64(pkt.Size)
		}
		tg := target{
			t:       t,
			pktOff:  int(ovStart - pkt.Addr),
			lineOff: int(ovStart - la),
			n:       int(ovEnd - ovStart),
			isWrite: isWrite,
		}

		extra := sim.Tick(0)
		if len(c.snoopers) > 0 {
			if dirty, data := c.snoopLine(la, isWrite); dirty {
				// Take ownership of the dirty line.
				s, ok := c.lookup(la)
				if !ok {
					s = c.victim(la)
				}
				l := c.line(s)
				c.store(s, l, 0, data)
				l.stamp |= dirtyBit
				extra = c.cfg.SnoopLatency
			}
		}

		if s, ok := c.lookup(la); ok {
			c.hits.Inc()
			c.apply(s, tg)
			c.lineDone(t, now+c.cfg.HitLatency+extra)
			continue
		}

		// Full-line write: install without fetching.
		if isWrite && tg.n == int(lb) {
			c.hits.Inc()
			c.apply(c.victim(la), tg)
			c.lineDone(t, now+c.cfg.HitLatency+extra)
			continue
		}

		c.misses.Inc()
		if i := c.findMSHR(la); i >= 0 {
			c.mshrs[i].targets = append(c.mshrs[i].targets, tg)
			continue
		}
		m := c.getMSHR()
		m.lineAddr = la
		m.targets = append(m.targets, tg)
		c.mshrs = append(c.mshrs, m)
		fill := c.pkts.NewRead(la, int(lb))
		fill.PushState(m)
		c.memQ.Schedule(fill, now+c.cfg.HitLatency+extra)
	}
	return true
}

// RecvTimingResp implements mem.Requestor: fills, writeback acks, and
// bypass responses come back from downstream.
func (c *Cache) RecvTimingResp(port *mem.RequestPort, pkt *mem.Packet) bool {
	now := c.eq.Now()
	switch st := pkt.PopState().(type) {
	case wbState:
		// Writeback acknowledged; resources may have freed. The cache
		// originated the writeback, so its lease ends here.
		pkt.Release()
		c.retryAfterFree()
		return true
	case bypassState:
		c.respQ.Schedule(pkt, now+c.cfg.ResponseLatency)
		c.retryAfterFree()
		return true
	case *mshr:
		m := st
		s := c.victim(m.lineAddr)
		c.store(s, c.line(s), 0, pkt.Data)
		for _, tg := range m.targets {
			c.apply(s, tg)
			c.lineDone(tg.t, now+c.cfg.ResponseLatency)
		}
		i := c.findMSHR(m.lineAddr)
		last := len(c.mshrs) - 1
		c.mshrs[i] = c.mshrs[last]
		c.mshrs[last] = nil
		c.mshrs = c.mshrs[:last]
		c.putMSHR(m)
		pkt.Release() // fill read originated by this cache; consumed here
		c.retryAfterFree()
		return true
	default:
		panic(fmt.Sprintf("%s: unexpected response state %T", c.name, st))
	}
}

func (c *Cache) retryAfterFree() {
	if !c.needRetry {
		return
	}
	c.needRetry = false
	c.cpuPort.SendRetryReq()
}

// RecvRetryReq implements mem.Requestor: downstream is ready again.
func (c *Cache) RecvRetryReq(port *mem.RequestPort) { c.memQ.RetryReceived() }

// RecvRetryResp implements mem.Responder: upstream is ready again.
func (c *Cache) RecvRetryResp(port *mem.ResponsePort) { c.respQ.RetryReceived() }

// SnoopInvalidate implements Snooper.
func (c *Cache) SnoopInvalidate(lineAddr uint64) (bool, []byte) {
	s, ok := c.lookup(lineAddr)
	if !ok {
		return false, nil
	}
	l := c.line(s)
	dirty := l.dirty()
	var data []byte
	if dirty {
		data = append([]byte(nil), c.data(s, l)...)
	}
	c.dropPayload(s, l)
	l.stamp = 0
	return dirty, data
}

// SnoopDowngrade implements Snooper.
func (c *Cache) SnoopDowngrade(lineAddr uint64) (bool, []byte) {
	s, ok := c.lookup(lineAddr)
	if !ok || !c.line(s).dirty() {
		return false, nil
	}
	l := c.line(s)
	l.stamp &^= dirtyBit
	return true, append([]byte(nil), c.data(s, l)...)
}

// ReadFunctional implements mem.Functional: cached lines win over
// downstream contents.
func (c *Cache) ReadFunctional(addr uint64, buf []byte) {
	if c.downFunc != nil {
		c.downFunc.ReadFunctional(addr, buf)
	}
	lb := c.lineBytes()
	first := mem.AlignDown(addr, lb)
	for la := first; la < addr+uint64(len(buf)); la += lb {
		if s, ok := c.lookup(la); ok {
			ovStart, ovEnd := la, la+lb
			if addr > ovStart {
				ovStart = addr
			}
			if addr+uint64(len(buf)) < ovEnd {
				ovEnd = addr + uint64(len(buf))
			}
			copy(buf[ovStart-addr:ovEnd-addr], c.data(s, c.line(s))[ovStart-la:ovEnd-la])
		}
	}
}

// WriteFunctional implements mem.Functional: write-through — cached
// lines are updated and the data always propagates downstream.
func (c *Cache) WriteFunctional(addr uint64, data []byte) {
	lb := c.lineBytes()
	first := mem.AlignDown(addr, lb)
	for la := first; la < addr+uint64(len(data)); la += lb {
		if s, ok := c.lookup(la); ok {
			ovStart, ovEnd := la, la+lb
			if addr > ovStart {
				ovStart = addr
			}
			if addr+uint64(len(data)) < ovEnd {
				ovEnd = addr + uint64(len(data))
			}
			c.store(s, c.line(s), int(ovStart-la), data[ovStart-addr:ovEnd-addr])
		}
	}
	if c.downFunc != nil {
		c.downFunc.WriteFunctional(addr, data)
	}
}

// OverlayFunctional copies the contents of any cached lines in
// [addr, addr+len(buf)) over buf, leaving uncached bytes untouched.
// System-level functional reads use it to let upper-level caches win
// over the lower-level view.
func (c *Cache) OverlayFunctional(addr uint64, buf []byte) {
	lb := c.lineBytes()
	first := mem.AlignDown(addr, lb)
	for la := first; la < addr+uint64(len(buf)); la += lb {
		if s, ok := c.lookup(la); ok {
			ovStart, ovEnd := la, la+lb
			if addr > ovStart {
				ovStart = addr
			}
			if addr+uint64(len(buf)) < ovEnd {
				ovEnd = addr + uint64(len(buf))
			}
			copy(buf[ovStart-addr:ovEnd-addr], c.data(s, c.line(s))[ovStart-la:ovEnd-la])
		}
	}
}

// UpdateFunctional writes data into any cached lines it covers without
// forwarding downstream; the caller handles the lower levels.
func (c *Cache) UpdateFunctional(addr uint64, data []byte) {
	lb := c.lineBytes()
	first := mem.AlignDown(addr, lb)
	for la := first; la < addr+uint64(len(data)); la += lb {
		if s, ok := c.lookup(la); ok {
			ovStart, ovEnd := la, la+lb
			if addr > ovStart {
				ovStart = addr
			}
			if addr+uint64(len(data)) < ovEnd {
				ovEnd = addr + uint64(len(data))
			}
			c.store(s, c.line(s), int(ovStart-la), data[ovStart-addr:ovEnd-addr])
		}
	}
}

// FlushAll writes every dirty line downstream functionally and
// invalidates the whole cache — the driver-managed flush used by the
// DM access method.
func (c *Cache) FlushAll() {
	for b, blk := range c.blocks {
		w := len(blk) >> blockShift
		for i := range blk {
			l := &blk[i]
			s := slot{b<<blockShift + i/w, i % w}
			if l.dirty() && c.downFunc != nil {
				c.downFunc.WriteFunctional(l.tag, c.data(s, l))
			}
			c.dropPayload(s, l)
			l.stamp = 0
		}
	}
}

// Audit reports the state a cache must not hold once its run has
// drained: outstanding misses, miss records not back on the freelist,
// and queued or blocked packets.
func (c *Cache) Audit() error {
	var errs []error
	if n := c.mshrsMade - len(c.mshrFree) - len(c.mshrs); n != 0 || len(c.mshrs) != 0 {
		errs = append(errs, fmt.Errorf("%s: %d misses outstanding, %d miss records lost", c.name, len(c.mshrs), n))
	}
	errs = append(errs, c.memQ.Audit(c.name+".memq"), c.respQ.Audit(c.name+".respq"))
	return errors.Join(errs...)
}

var _ mem.Requestor = (*Cache)(nil)
var _ mem.Responder = (*Cache)(nil)
var _ mem.Functional = (*Cache)(nil)
var _ Snooper = (*Cache)(nil)
