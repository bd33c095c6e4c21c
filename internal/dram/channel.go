package dram

import (
	"accesys/internal/sim"
)

// bank tracks one bank's row-buffer state machine via next-allowed
// ticks for each command class, the standard request-level DRAM
// modeling technique (gem5's MemCtrl, DRAMsim's bank states).
type bank struct {
	rowOpen bool
	row     uint64

	actReady sim.Tick // earliest next ACT
	colReady sim.Tick // earliest next column command
	preReady sim.Tick // earliest next PRE
}

// timing holds a spec's timing parameters in ticks, converted once
// when a channel is built so the access path neither copies the Spec
// nor redoes TCK's divide. Each field equals Spec.Cycles of the
// parameter it names; burst equals Spec.BurstTicks.
type timing struct {
	cl, cwl, rcd, rp, ras, rc, wr, rtp, ccd sim.Tick
	rrd, faw, wtr, rtw, refi, rfc, burst    sim.Tick
}

func newTiming(s Spec) timing {
	tck := s.TCK()
	cyc := func(n int) sim.Tick { return sim.Tick(n) * tck }
	return timing{
		cl: cyc(s.CL), cwl: cyc(s.CWL), rcd: cyc(s.RCD), rp: cyc(s.RP),
		ras: cyc(s.RAS), rc: cyc(s.RC), wr: cyc(s.WR), rtp: cyc(s.RTP),
		ccd: cyc(s.CCD), rrd: cyc(s.RRD), faw: cyc(s.FAW), wtr: cyc(s.WTR),
		rtw: cyc(s.RTW), refi: cyc(s.REFI), rfc: cyc(s.RFC),
		burst: cyc(s.BurstLength / 2),
	}
}

// channel models one DRAM channel: banks, the shared data bus, the
// activation window, and FR-FCFS scheduling state.
type channel struct {
	t        timing
	rowBytes uint64

	banks []bank

	busFree  sim.Tick
	lastIsWr bool
	// actWindow is a ring of the last four ACT times, for tFAW: ACT
	// number i (counting from 0) is recorded in actWindow[i%4], and
	// acts counts every ACT recorded.
	actWindow  [4]sim.Tick
	acts       uint64
	lastAct    sim.Tick // for tRRD
	nextRefill sim.Tick // next refresh due

	// Stats accumulated by the owning controller.
	rowHits   uint64
	rowMisses uint64
	refreshes uint64
}

func newChannel(spec Spec) *channel {
	t := newTiming(spec)
	return &channel{
		t:          t,
		rowBytes:   spec.RowBytes,
		banks:      make([]bank, spec.BanksPerChannel()),
		nextRefill: t.refi,
	}
}

// coord is the decomposed location of an access within a channel.
type coord struct {
	bank int
	row  uint64
}

// decompose maps a channel-local byte address to bank/row coordinates.
// Mapping: row : bank : row-offset — consecutive rows rotate across
// banks so streaming accesses exploit bank parallelism.
func (c *channel) decompose(addr uint64) coord {
	rowID := addr / c.rowBytes
	nb := uint64(len(c.banks))
	return coord{
		bank: int(rowID % nb),
		row:  rowID / nb,
	}
}

// applyRefresh folds due refreshes into bank availability. Refresh
// closes every row and blocks all banks for tRFC; the k refreshes due
// by now fold in one step, as only the last one's end bounds an ACT.
func (c *channel) applyRefresh(now sim.Tick) {
	if now < c.nextRefill {
		return
	}
	k := (now-c.nextRefill)/c.t.refi + 1
	end := c.nextRefill + (k-1)*c.t.refi + c.t.rfc
	for i := range c.banks {
		b := &c.banks[i]
		b.rowOpen = false
		b.actReady = max(b.actReady, end)
	}
	c.refreshes += uint64(k)
	c.nextRefill += k * c.t.refi
}

// rowHit reports whether the access would hit the open row.
func (c *channel) rowHit(co coord) bool {
	b := &c.banks[co.bank]
	return b.rowOpen && b.row == co.row
}

// maxTick returns the latest of its arguments.
func maxTick(ts ...sim.Tick) sim.Tick {
	var m sim.Tick
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// fawConstraint returns the earliest tick a new ACT may issue under the
// four-activate window: tFAW after the fourth most recent ACT, which is
// the slot the next record overwrites.
func (c *channel) fawConstraint() sim.Tick {
	if c.acts < 4 {
		return 0
	}
	return c.actWindow[c.acts%4] + c.t.faw
}

func (c *channel) recordAct(t sim.Tick) {
	c.actWindow[c.acts%4] = t
	c.acts++
	c.lastAct = t
}

// access issues one request (read or write of nBursts bursts) at the
// earliest legal time at or after now, updates all state, and returns
// the tick at which its data transfer completes.
func (c *channel) access(now sim.Tick, co coord, isWrite bool, nBursts int) sim.Tick {
	c.applyRefresh(now)
	t := &c.t
	b := &c.banks[co.bank]

	var col sim.Tick // column command issue time
	switch {
	case c.rowHit(co):
		c.rowHits++
		col = maxTick(now, b.colReady)
	case b.rowOpen: // conflict: PRE + ACT + column
		c.rowMisses++
		pre := maxTick(now, b.preReady)
		act := maxTick(pre+t.rp, b.actReady, c.fawConstraint(), c.lastAct+t.rrd)
		c.recordAct(act)
		b.actReady = act + t.rc
		b.preReady = act + t.ras
		col = act + t.rcd
	default: // closed: ACT + column
		c.rowMisses++
		act := maxTick(now, b.actReady, c.fawConstraint(), c.lastAct+t.rrd)
		c.recordAct(act)
		b.actReady = act + t.rc
		b.preReady = act + t.ras
		col = act + t.rcd
	}
	b.rowOpen = true
	b.row = co.row

	// Column-to-data latency and the shared data bus. A read/write
	// turnaround penalty applies when direction flips.
	lat := t.cl
	if isWrite {
		lat = t.cwl
	}
	busAvail := c.busFree
	if c.lastIsWr != isWrite && c.busFree > 0 {
		if isWrite {
			busAvail += t.rtw
		} else {
			busAvail += t.wtr
		}
	}
	dataStart := maxTick(col+lat, busAvail)
	// Back-shift the column command so data aligns with the bus slot.
	col = dataStart - lat

	dataEnd := dataStart + sim.Tick(nBursts)*t.burst

	b.colReady = col + t.ccd*sim.Tick(nBursts)
	if isWrite {
		wrRecov := dataEnd + t.wr
		if wrRecov > b.preReady {
			b.preReady = wrRecov
		}
	} else {
		rtp := col + t.rtp
		if rtp > b.preReady {
			b.preReady = rtp
		}
	}
	c.busFree = dataEnd
	c.lastIsWr = isWrite
	return dataEnd
}
