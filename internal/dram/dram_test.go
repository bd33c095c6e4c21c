package dram

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func allSpecs() []Spec {
	return []Spec{DDR3_1600, DDR4_2400, DDR5_3200, LPDDR5_6400, GDDR5_2000, GDDR6_2000, HBM2_2000}
}

func TestSpecsValidate(t *testing.T) {
	for _, s := range allSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// peakGBps is a spec's aggregate theoretical (pin-rate) bandwidth.
func peakGBps(s Spec) float64 {
	return float64(s.DataRateMTs) * float64(s.ChannelBits/8) * float64(s.Channels) / 1000
}

// TestTableIIIBandwidths pins the presets to the paper's Table III.
func TestTableIIIBandwidths(t *testing.T) {
	cases := []struct {
		spec Spec
		want float64
	}{
		{DDR3_1600, 12.8},
		{DDR4_2400, 19.2},
		{DDR5_3200, 25.6},
		{HBM2_2000, 64},
		{GDDR6_2000, 32},
		{GDDR5_2000, 32},
		{LPDDR5_6400, 25.6},
	}
	for _, c := range cases {
		if got := peakGBps(c.spec); got != c.want {
			t.Errorf("%s peak = %v GB/s, want %v", c.spec.Name, got, c.want)
		}
	}
}

func TestSpecDerived(t *testing.T) {
	s := DDR4_2400
	if s.TCK() != 833 {
		t.Fatalf("DDR4-2400 tCK = %v ps, want 833", uint64(s.TCK()))
	}
	if s.BurstBytes() != 64 {
		t.Fatalf("burst bytes = %d, want 64", s.BurstBytes())
	}
	if s.BurstTicks() != 4*833 {
		t.Fatalf("burst ticks = %v", s.BurstTicks())
	}
	if s.BanksPerChannel() != 32 {
		t.Fatalf("banks/channel = %d, want 32", s.BanksPerChannel())
	}
}

// TestTimingMatchesSpec pins the channel's precomputed tick timings
// to the Spec conversions they replace, for every built-in spec.
func TestTimingMatchesSpec(t *testing.T) {
	for _, s := range allSpecs() {
		tm := newTiming(s)
		for _, c := range []struct {
			name   string
			cycles int
			got    sim.Tick
		}{
			{"CL", s.CL, tm.cl}, {"CWL", s.CWL, tm.cwl}, {"RCD", s.RCD, tm.rcd}, {"RP", s.RP, tm.rp},
			{"RAS", s.RAS, tm.ras}, {"RC", s.RC, tm.rc}, {"WR", s.WR, tm.wr}, {"RTP", s.RTP, tm.rtp},
			{"CCD", s.CCD, tm.ccd}, {"RRD", s.RRD, tm.rrd}, {"FAW", s.FAW, tm.faw}, {"WTR", s.WTR, tm.wtr},
			{"RTW", s.RTW, tm.rtw}, {"REFI", s.REFI, tm.refi}, {"RFC", s.RFC, tm.rfc},
		} {
			if want := s.Cycles(c.cycles); c.got != want {
				t.Errorf("%s: t%s = %d ticks, Spec.Cycles gives %d", s.Name, c.name, c.got, want)
			}
		}
		if tm.burst != s.BurstTicks() {
			t.Errorf("%s: burst = %d ticks, Spec.BurstTicks gives %d", s.Name, tm.burst, s.BurstTicks())
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, ok := SpecByName("HBM2-2000")
	if !ok || s.Channels != 2 || s.ChannelBits != 128 {
		t.Fatalf("SpecByName(HBM2-2000) = %+v, %v", s, ok)
	}
	if _, ok := SpecByName("nope"); ok {
		t.Fatal("unknown spec should not resolve")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	bad := DDR4_2400
	bad.RC = 10 // < RAS+RP
	if bad.Validate() == nil {
		t.Fatal("tRC < tRAS+tRP should fail validation")
	}
	bad2 := DDR4_2400
	bad2.RowBytes = 100 // not burst multiple
	if bad2.Validate() == nil {
		t.Fatal("row not burst-multiple should fail validation")
	}
}

func newDRAM(t *testing.T, spec Spec) (*sim.EventQueue, *DRAM, *memtest.Requestor, *stats.Registry) {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	d := New("dram", eq, reg, Config{Spec: spec, Range: mem.Range(0, 64<<20)})
	r := memtest.NewRequestor(eq)
	mem.Bind(r.Port, d.Port())
	return eq, d, r, reg
}

func TestReadCompletes(t *testing.T) {
	eq, _, r, _ := newDRAM(t, DDR4_2400)
	r.Send(mem.NewRead(0, 64))
	eq.Run()
	if len(r.Done) != 1 || r.Done[0].Cmd != mem.ReadResp {
		t.Fatalf("read did not complete: %v", r.Done)
	}
	// Closed-row access: frontend(10ns) + tRCD(17c) + CL(17c) +
	// burst(4c) + backend(2ns) at 0.833ns/c ~ 43.7ns.
	lat := r.DoneAt[0]
	if lat < 30*sim.Nanosecond || lat > 80*sim.Nanosecond {
		t.Fatalf("first-read latency %v outside sane window", lat)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	// Same row back-to-back vs same bank different row.
	eq1, _, r1, _ := newDRAM(t, DDR4_2400)
	a := mem.NewRead(0, 64)
	b := mem.NewRead(64, 64) // same row (1 KiB rows)
	r1.Send(a)
	r1.Send(b)
	eq1.Run()
	hitGap := r1.DoneAt[1] - r1.DoneAt[0]

	eq2, d2, r2, _ := newDRAM(t, DDR4_2400)
	// Same bank, different row: rows rotate across 32 banks with 256B
	// channel interleave... compute a conflicting address directly:
	// channel-local row id k and k+nbanks map to the same bank.
	nb := uint64(d2.Spec().BanksPerChannel())
	rowBytes := d2.Spec().RowBytes
	chans := uint64(d2.Spec().Channels)
	il := uint64(256)
	// Device offset that lands channel 0, local addr rowBytes*nb:
	local := rowBytes * nb
	dev := (local/il)*il*chans + local%il
	c := mem.NewRead(0, 64)
	e := mem.NewRead(dev, 64)
	r2.Send(c)
	r2.Send(e)
	eq2.Run()
	confGap := r2.DoneAt[1] - r2.DoneAt[0]

	if hitGap >= confGap {
		t.Fatalf("row hit gap %v should beat conflict gap %v", hitGap, confGap)
	}
}

func TestStreamingBandwidth(t *testing.T) {
	for _, spec := range []Spec{DDR4_2400, HBM2_2000} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			eq, _, r, _ := newDRAM(t, spec)
			const total = 1 << 20 // 1 MiB
			const pkt = 256
			for a := uint64(0); a < total; a += pkt {
				r.Send(mem.NewRead(a, pkt))
			}
			eq.Run()
			if len(r.Done) != total/pkt {
				t.Fatalf("completed %d of %d", len(r.Done), total/pkt)
			}
			elapsed := eq.Now().Seconds()
			gbps := float64(total) / elapsed / 1e9
			peak := peakGBps(spec)
			if gbps < 0.4*peak {
				t.Fatalf("achieved %.1f GB/s, below 40%% of peak %.1f", gbps, peak)
			}
			if gbps > peak*1.01 {
				t.Fatalf("achieved %.1f GB/s exceeds peak %.1f", gbps, peak)
			}
		})
	}
}

// TestTechnologyOrdering checks the relative streaming performance the
// paper's Fig. 5 depends on: HBM2 > GDDR5 > DDR4 > DDR3.
func TestTechnologyOrdering(t *testing.T) {
	elapsed := func(spec Spec) sim.Tick {
		eq, _, r, _ := newDRAM(t, spec)
		const total = 1 << 19
		for a := uint64(0); a < total; a += 256 {
			r.Send(mem.NewRead(a, 256))
		}
		eq.Run()
		return eq.Now()
	}
	tHBM := elapsed(HBM2_2000)
	tGDDR := elapsed(GDDR5_2000)
	tDDR4 := elapsed(DDR4_2400)
	tDDR3 := elapsed(DDR3_1600)
	if !(tHBM < tGDDR && tGDDR < tDDR4 && tDDR4 < tDDR3) {
		t.Fatalf("ordering violated: HBM=%v GDDR5=%v DDR4=%v DDR3=%v", tHBM, tGDDR, tDDR4, tDDR3)
	}
}

func TestWriteReadIntegrity(t *testing.T) {
	eq, _, r, _ := newDRAM(t, DDR3_1600)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i ^ 0x5a)
	}
	r.Send(mem.NewWrite(0x1000, payload))
	rd := mem.NewRead(0x1000, 256)
	r.SendAt(rd, 10*sim.Microsecond)
	eq.Run()
	if !bytes.Equal(rd.Data, payload) {
		t.Fatal("write-read roundtrip mismatch")
	}
}

func TestRefreshHappens(t *testing.T) {
	eq, _, r, reg := newDRAM(t, DDR4_2400)
	// Spread sparse reads across 3 refresh intervals (~7.8us each).
	for i := 0; i < 30; i++ {
		r.SendAt(mem.NewRead(uint64(i)*64, 64), sim.Tick(i)*sim.Microsecond)
	}
	eq.Run()
	if reg.Lookup("dram.refreshes").Value() < 2 {
		t.Fatalf("refreshes = %v, want >= 2 over 30us", reg.Lookup("dram.refreshes").Value())
	}
}

func TestRowHitRateSequential(t *testing.T) {
	eq, _, r, reg := newDRAM(t, DDR4_2400)
	for a := uint64(0); a < 1<<16; a += 64 {
		r.Send(mem.NewRead(a, 64))
	}
	eq.Run()
	rate := reg.Lookup("dram.row_hit_rate").Value()
	if rate < 0.5 {
		t.Fatalf("sequential stream row hit rate %.2f, want >= 0.5", rate)
	}
}

func TestChannelMappingBijective(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	d := New("dram", eq, reg, Config{Spec: HBM2_2000, Range: mem.Range(0, 32<<20)})
	f := func(off uint32) bool {
		offset := uint64(off) % (32 << 20)
		ch, local := d.channelOf(offset)
		if ch < 0 || ch >= d.cfg.Spec.Channels {
			return false
		}
		// Reconstruct: the mapping must be invertible.
		il := d.cfg.InterleaveBytes
		blk := local / il
		within := local % il
		back := (blk*uint64(d.cfg.Spec.Channels)+uint64(ch))*il + within
		return back == offset
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelsBalanceSequential(t *testing.T) {
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	d := New("dram", eq, reg, Config{Spec: HBM2_2000, Range: mem.Range(0, 32<<20)})
	counts := make([]int, d.cfg.Spec.Channels)
	for a := uint64(0); a < 1<<16; a += 256 {
		ch, _ := d.channelOf(a)
		counts[ch]++
	}
	if counts[0] != counts[1] {
		t.Fatalf("sequential blocks unbalanced: %v", counts)
	}
}

func TestBackpressureRecovers(t *testing.T) {
	eq, _, r, _ := newDRAM(t, DDR3_1600)
	const n = 500 // far beyond queue depth
	for i := 0; i < n; i++ {
		r.Send(mem.NewRead(uint64(i)*64, 64))
	}
	eq.Run()
	if len(r.Done) != n {
		t.Fatalf("completed %d of %d under backpressure", len(r.Done), n)
	}
}

// Protocol checker: bank timing legality. Replays the channel model
// and asserts ACT-to-ACT >= tRC and data bus never overlaps.
func TestBankProtocolInvariants(t *testing.T) {
	spec := DDR4_2400
	ch := newChannel(spec)
	var lastDataEnd sim.Tick
	now := sim.Tick(0)
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			local := uint64(a) * 64
			co := ch.decompose(local)
			end := ch.access(now, co, false, 1)
			if end < lastDataEnd+spec.BurstTicks() {
				// New burst must start at or after previous end:
				// end - burst >= lastDataEnd.
				if end-spec.BurstTicks() < lastDataEnd {
					return false
				}
			}
			lastDataEnd = end
			now = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPostedWriteLatencyShort(t *testing.T) {
	eq, _, r, _ := newDRAM(t, DDR4_2400)
	r.Send(mem.NewWrite(0, make([]byte, 64)))
	eq.Run()
	if len(r.Done) != 1 {
		t.Fatal("write response missing")
	}
	if r.DoneAt[0] > 15*sim.Nanosecond {
		t.Fatalf("posted write took %v, want ~frontend latency", r.DoneAt[0])
	}
}

func BenchmarkStreamingRead(b *testing.B) {
	for _, spec := range []Spec{DDR4_2400, HBM2_2000} {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eq := sim.NewEventQueue()
				reg := stats.NewRegistry()
				d := New("dram", eq, reg, Config{Spec: spec, Range: mem.Range(0, 64<<20)})
				r := memtest.NewStreamer(eq)
				mem.Bind(r.Port, d.Port())
				r.Read(0, 1<<20, 256)
				eq.Run()
				if r.Completed != 4096 {
					b.Fatalf("%d of 4096 reads completed", r.Completed)
				}
				gbps := float64(1<<20) / eq.Now().Seconds() / 1e9
				b.ReportMetric(gbps, "sim_GB/s")
			}
		})
	}
}

// Audit holds a controller to the state a drained run leaves: empty
// channel queues, every request entry recycled, and no response
// queued or blocked.
func TestAuditReportsUndrainedController(t *testing.T) {
	eq, d, r, _ := newDRAM(t, DDR4_2400)
	r.Send(mem.NewRead(0, 64))
	if err := d.Audit(); err == nil || !strings.Contains(err.Error(), "dram.ch0: 1 reads and 0 writes queued") {
		t.Fatalf("Audit with a read queued = %v, want the queued read", err)
	}
	r.RefuseResponses = true
	eq.Run()
	if err := d.Audit(); err == nil || !strings.Contains(err.Error(), "dram.respq: 1 packets queued, blocked true") {
		t.Fatalf("Audit with the response refused = %v, want a blocked respq", err)
	}
	r.ReleaseResponses()
	eq.Run()
	if err := d.Audit(); err != nil {
		t.Fatalf("Audit after the read: %v", err)
	}
	d.getReq() // an entry that never returns to the freelist
	if err := d.Audit(); err == nil || !strings.Contains(err.Error(), "dram: 1 request entries lost") {
		t.Fatalf("Audit with a lost entry = %v, want it counted", err)
	}
}

// refreshLoop is the stepwise refresh applyRefresh folds in closed
// form: one iteration per tREFI interval due by now. It is the
// reference TestRefreshFoldMatchesLoop checks the fold against.
func refreshLoop(c *channel, now sim.Tick) {
	for now >= c.nextRefill {
		end := c.nextRefill + c.t.rfc
		for i := range c.banks {
			b := &c.banks[i]
			b.rowOpen = false
			if b.actReady < end {
				b.actReady = end
			}
		}
		c.refreshes++
		c.nextRefill += c.t.refi
	}
}

func TestRefreshFoldMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []Spec{DDR4_2400, HBM2_2000, LPDDR5_6400} {
		fold, loop := newChannel(spec), newChannel(spec)
		var now sim.Tick
		for step := 0; step < 2000; step++ {
			// Gaps from well inside one interval to hundreds of them,
			// with bank state moved in between as accesses would.
			switch rng.Intn(3) {
			case 0:
				now += sim.Tick(rng.Int63n(int64(fold.t.refi)))
			case 1:
				now += sim.Tick(rng.Int63n(int64(4 * fold.t.refi)))
			default:
				now += sim.Tick(rng.Int63n(int64(500 * fold.t.refi)))
			}
			bi := rng.Intn(len(fold.banks))
			ready := now + sim.Tick(rng.Int63n(int64(2*fold.t.rfc)))
			for _, c := range []*channel{fold, loop} {
				c.banks[bi].rowOpen, c.banks[bi].row = true, uint64(step)
				c.banks[bi].actReady = ready
			}
			fold.applyRefresh(now)
			refreshLoop(loop, now)
			if fold.refreshes != loop.refreshes || fold.nextRefill != loop.nextRefill {
				t.Fatalf("%s step %d at %v: fold %d refreshes, next %v; loop %d, next %v",
					spec.Name, step, now, fold.refreshes, fold.nextRefill, loop.refreshes, loop.nextRefill)
			}
			for i := range fold.banks {
				if fold.banks[i] != loop.banks[i] {
					t.Fatalf("%s step %d bank %d: fold %+v, loop %+v", spec.Name, step, i, fold.banks[i], loop.banks[i])
				}
			}
		}
		if fold.refreshes < 1000 {
			t.Fatalf("%s: only %d refreshes folded; the gaps did not span intervals", spec.Name, fold.refreshes)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	r := mem.Range(0, 64<<20)
	oddBurst := DDR4_2400
	oddBurst.BurstLength = 3
	noCap := DDR4_2400
	noCap.CapacityPerChannel = 0
	shortRC := DDR4_2400
	shortRC.RC = shortRC.RAS
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Spec: DDR4_2400, Range: r}, ""},
		{Config{Spec: HBM2_2000, Range: mem.Range(0, HBM2_2000.CapacityPerChannel*uint64(HBM2_2000.Channels))}, ""},
		{Config{Spec: oddBurst, Range: r}, "Spec DDR4-2400: BurstLength 3 must be even and >= 2"},
		{Config{Spec: noCap, Range: r}, "Spec DDR4-2400: CapacityPerChannel is zero"},
		{Config{Spec: shortRC, Range: r}, fmt.Sprintf("Spec DDR4-2400: RC %d must cover RAS+RP (%d)", shortRC.RC, shortRC.RAS+shortRC.RP)},
		{Config{Spec: Spec{Name: "bare"}, Range: r}, "Spec bare: Channels, ChannelBits and DataRateMTs must be positive"},
		{Config{Spec: DDR4_2400, Range: mem.Range(0, 16<<30)}, "Range [0x0,0x400000000) does not fit DDR4-2400 capacity 8589934592"},
		{Config{Spec: DDR4_2400, Range: mem.AddrRange{Start: 0x2000, End: 0x1000}}, "Range [0x2000,0x1000) does not fit DDR4-2400 capacity 8589934592"},
	} {
		err := c.cfg.Validate()
		if (c.want == "") != (err == nil) || (err != nil && err.Error() != c.want) {
			t.Errorf("%s %v: Validate = %v, want %q", c.cfg.Spec.Name, c.cfg.Range, err, c.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		if r := recover(); r != "dram devmem: Range [0x0,0x400000000) does not fit DDR4-2400 capacity 8589934592" {
			t.Fatalf("panic = %v", r)
		}
	}()
	New("devmem", sim.NewEventQueue(), stats.NewRegistry(), Config{Spec: DDR4_2400, Range: mem.Range(0, 16<<30)})
}
