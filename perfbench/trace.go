package main

// The traced run. Spans are recorded from the benchmark's own code
// around each call into a layer's public function — scenario.Points and
// sweep.Digest (fingerprint), Cache.Get, scenario.BuildSystem,
// Driver.RunGEMM, System.Run, Cache.Put — kept in memory and written
// to .bench_build/traces/ when the run ends, with each span name's self
// time (its duration minus the time its child spans cover).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"accesys/internal/core"
	"accesys/internal/cpu"
	"accesys/internal/dram"
	"accesys/internal/driver"
	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/pcie"
	"accesys/internal/scenario"
	"accesys/internal/sim"
	"accesys/internal/stats"
	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// span is one timed call. Spans of one point share its Point id (the
// leading digits of its fingerprint digest).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Point  string `json:"point,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Events uint64 `json:"events,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) begin(name string, parent int, point string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Point: point,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// add records an already-timed span.
func (t *tracer) add(name string, parent int, point string, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Point: point,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianOf is the median of f over the named spans, or 0 when none
// were recorded.
func (t *tracer) medianOf(name string, f func(span) float64) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, f(s))
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func spanMs(s span) float64 { return ms(s.dur()) }
func spanUs(s span) float64 { return float64(s.dur().Nanoseconds()) / 1e3 }

// selfTime sums, per span name, the count, the total duration and the
// self time.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += ms(s.dur())
		st.SelfMs += ms(s.dur() - child[s.ID])
		out[s.Name] = st
	}
	return out
}

// write stores the spans and their self times under .bench_build/traces
// and prints the self-time table.
func (t *tracer) write(r *run) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := self[n]
		fmt.Printf("span %-12s n=%-6d total_ms=%-12.3f self_ms=%.3f\n", n, st.Count, st.TotalMs, st.SelfMs)
	}
	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": t.spans, "self": self})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)), data, 0o644)
}

// point runs one sweep point the way the engine's path does —
// fingerprint, cache lookup, and on a miss build, submit, run and cache
// write — with a span around each layer call. On a miss it also returns
// the point's exact counts.
func (t *tracer) point(sc *scenario.Scenario, run scenario.Run, c *sweep.Cache, parent int) (out sweep.Outcome, hit bool, cnt simCounts, err error) {
	pt := t.begin("point", parent, "")
	fp := t.begin("fingerprint", pt, "")
	p := sc.Points([]scenario.Run{run})[0]
	id := sweep.Digest(p.Fingerprint)[:16]
	t.end(fp)
	t.spans[pt-1].Point, t.spans[fp-1].Point = id, id
	sp := t.begin("cache_get", pt, id)
	out, hit = c.Get(p.Fingerprint)
	t.end(sp)
	if !hit {
		out, cnt, err = t.simulate(sc, run, pt, id)
		if err == nil {
			sp = t.begin("cache_put", pt, id)
			c.Put(p.Fingerprint, out)
			t.end(sp)
		}
	}
	t.end(pt)
	return out, hit, cnt, err
}

// simulate builds and runs one point, timing the build, the submission
// and the event loop apart, and reads the finished system's counts.
func (t *tracer) simulate(sc *scenario.Scenario, run scenario.Run, parent int, id string) (sweep.Outcome, simCounts, error) {
	if sc.Workload.Kind == "vit" {
		return t.simulateViT(run, parent, id)
	}
	m := mallocs()
	sp := t.begin("build", parent, id)
	sys, drv := scenario.BuildSystem(run.Cfg)
	t.end(sp)
	t.spans[sp-1].Allocs = mallocs() - m

	var res driver.Result
	sp = t.begin("submit", parent, id)
	drv.RunGEMM(driver.GEMMSpec{M: run.N, N: run.N, K: run.N}, func(r driver.Result) { res = r })
	t.end(sp)

	m = mallocs()
	sp = t.begin("run", parent, id)
	sys.Run()
	t.end(sp)
	t.spans[sp-1].Allocs = mallocs() - m
	t.spans[sp-1].Events = sys.ExecutedEvents()
	if res.Completed == 0 {
		return sweep.Outcome{}, simCounts{}, fmt.Errorf("point %s: GEMM never completed", run.Key)
	}
	out := sweep.Outcome{Dur: res.Job.Duration(), Values: extract(sc.Metrics, res)}
	return out, simCounts{events: sys.ExecutedEvents(), stats: readStats(sys)}, nil
}

// extract mirrors the scenario layer's metric extraction for the
// groups the benchmark's scenarios declare; the fixture comparison
// catches any drift between the two.
func extract(groups []string, res driver.Result) map[string]float64 {
	if len(groups) == 0 {
		return nil
	}
	out := map[string]float64{}
	for _, g := range groups {
		switch g {
		case "pages":
			out["pages"] = float64(res.PagesMapped)
		case "accel":
			out["tiles"] = float64(res.Job.Tiles)
			out["bytes_in"] = float64(res.Job.BytesIn)
			out["bytes_out"] = float64(res.Job.BytesOut)
			out["compute_busy_ns"] = float64(res.Job.ComputeBusy.Nanoseconds())
		default:
			panic("perfbench: no extraction for metric group " + g)
		}
	}
	return out
}

// simulateViT replays scenario.SimViT step by step, so that the build,
// the first submission and the event loop are timed apart and the
// finished system's statistics can be read. The fixture holds SimViT's
// own outcome for every fig9 point, so checking the replay's outcome
// against it proves the replay still matches SimViT.
func (t *tracer) simulateViT(run scenario.Run, parent int, id string) (sweep.Outcome, simCounts, error) {
	vs := t.begin("vit", parent, id)
	g := workload.ViT(run.Model)
	m := mallocs()
	sp := t.begin("build", vs, id)
	sys, drv := scenario.BuildSystem(run.Cfg)
	t.end(sp)
	t.spans[sp-1].Allocs = mallocs() - m

	sp = t.begin("submit", vs, id)
	const arena = 64 << 20
	var actBase uint64
	if sys.Cfg.Access == core.DevMem {
		actBase = drv.AllocDev(arena)
	} else {
		actBase = drv.AllocHost(arena)
	}
	var gemmT, cpuT sim.Tick
	rot := uint64(0)
	idx := 0
	var step func()
	step = func() {
		if idx == len(g.Items) {
			return
		}
		it := g.Items[idx]
		idx++
		start := sys.Now()
		if it.GEMM != nil {
			j := it.GEMM
			drv.RunGEMM(driver.GEMMSpec{M: j.M, N: j.N, K: j.K}, func(driver.Result) {
				gemmT += sys.Now() - start
				step()
			})
			return
		}
		op := it.CPU
		size := uint64(op.ReadBytes + op.WriteBytes)
		if rot+size >= arena {
			rot = 0
		}
		sys.CPU.Run([]cpu.Op{{
			Name:          op.Name,
			ReadAddr:      actBase + rot,
			ReadBytes:     op.ReadBytes,
			WriteAddr:     actBase + rot + uint64(op.ReadBytes),
			WriteBytes:    op.WriteBytes,
			ComputeCycles: op.ComputeCycles,
		}}, func() {
			cpuT += sys.Now() - start
			step()
		})
		rot += size
	}
	step()
	t.end(sp)

	m = mallocs()
	sp = t.begin("run", vs, id)
	sys.Run()
	t.end(sp)
	t.spans[sp-1].Allocs = mallocs() - m
	t.spans[sp-1].Events = sys.ExecutedEvents()
	t.end(vs)
	if idx != len(g.Items) {
		return sweep.Outcome{}, simCounts{}, fmt.Errorf("point %s: ViT stalled at item %d/%d", run.Key, idx, len(g.Items))
	}
	split := scenario.ViTSplit{GEMM: gemmT * sim.Tick(g.Layers), NonGEMM: cpuT * sim.Tick(g.Layers)}
	out := sweep.Outcome{Dur: split.Total(), Values: map[string]float64{
		"gemm":    float64(split.GEMM),
		"nongemm": float64(split.NonGEMM),
	}}
	return out, simCounts{events: sys.ExecutedEvents(), stats: readStats(sys)}, nil
}

// tracedPass runs points through the traced pipeline on c, checking
// cold points' exact counts against the fixture, and returns the
// pass's wall time.
func (r *run) tracedPass(t *tracer, sc *scenario.Scenario, runs []scenario.Run, c *sweep.Cache, total *simCounts, hits *int) (time.Duration, []sweep.Outcome) {
	pass := t.begin("pass", 0, "")
	outs := make([]sweep.Outcome, len(runs))
	start := time.Now()
	for i, run := range runs {
		r.attempted++
		r.guard(1, "traced point "+run.Key, func() {
			out, hit, cnt, err := t.point(sc, run, c, pass)
			if err != nil {
				r.fail(1, "%v", err)
				return
			}
			outs[i] = out
			if hit {
				*hits++
				return
			}
			r.checkCounts(run.Key, cnt)
			total.events += cnt.events
			for k, v := range cnt.stats {
				total.stats[k] += v
			}
		})
	}
	wall := time.Since(start)
	t.end(pass)
	return wall, outs
}

// layerMetrics derives the per-layer metrics of the traced passes:
// medians of the span durations and the summed simulated statistics.
func (r *run) layerMetrics(t *tracer, total simCounts, hits, gets int) {
	r.set("sim.run_ms", "ms", t.medianOf("run", spanMs))
	var runNs float64
	for _, s := range t.named("run") {
		runNs += float64(s.dur().Nanoseconds())
	}
	r.set("sim.ns_per_event", "ns", runNs/float64(max(total.events, 1)))
	r.set("sim.run_allocs", "count", t.medianOf("run", func(s span) float64 { return float64(s.Allocs) }))
	r.set("sim.events", "count", float64(total.events))
	r.set("core.build_ms", "ms", t.medianOf("build", spanMs))
	r.set("core.build_allocs", "count", t.medianOf("build", func(s span) float64 { return float64(s.Allocs) }))
	r.set("driver.submit_us", "us", t.medianOf("submit", spanUs))
	r.set("sweep.fingerprint_us", "us", t.medianOf("fingerprint", spanUs))
	r.set("sweep.cache_get_us", "us", t.medianOf("cache_get", spanUs))
	r.set("sweep.cache_put_us", "us", t.medianOf("cache_put", spanUs))
	r.set("sweep.cache_hit_ratio", "ratio", float64(hits)/float64(max(gets, 1)))

	s := total.stats
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("pcie.tlps", "count", s["pcie.tlps"])
	r.set("pcie.bytes", "bytes", s["pcie.bytes"])
	r.set("smmu.translations", "count", s["smmu.translations"])
	r.set("smmu.utlb_miss_ratio", "ratio", ratio(s["smmu.utlb_misses"], s["smmu.utlb_lookups"]))
	r.set("smmu.ptws", "count", s["smmu.ptws"])
	r.set("smmu.stall_ns", "sim_ns", s["smmu.stall_ns"])
	r.set("dram.row_hit_rate", "ratio", ratio(s["dram.row_hits"], s["dram.row_hits"]+s["dram.row_misses"]))
	r.set("dram.latency_ns_mean", "sim_ns", ratio(s["dram.latency_sum_ns"], s["dram.latency_n"]))
	r.set("dma.bursts", "count", s["dma.bursts"])
	r.set("dma.transfer_ns_mean", "sim_ns", ratio(s["dma.transfer_sum_ns"], s["dma.transfer_n"]))
	r.set("cache.llc.hit_rate", "ratio", ratio(s["llc.hits"], s["llc.hits"]+s["llc.misses"]))
	r.set("cache.iocache.hit_rate", "ratio", ratio(s["iocache.hits"], s["iocache.hits"]+s["iocache.misses"]))
	r.set("interconnect.retries", "count", s["interconnect.retries"])
	r.set("accel.compute_busy_ratio", "ratio", ratio(s["accel.compute_ns"], s["accel.gemm_ns"]))
}

// setOverhead reports how much slower the traced cold pass ran than the
// untraced one over the same points.
func (r *run) setOverhead(traced, untraced time.Duration) {
	r.set("trace.overhead_pct", "%", 100*(traced.Seconds()/untraced.Seconds()-1))
}

// probeReps is how many times each layer probe runs; it reports the
// median. One stream takes a few milliseconds, short enough for a
// collection or a slow stretch of the host to skew a handful of runs.
const probeReps = 21

// probeLayers times single layers in isolation, built from public
// constructors the way the in-package benchmarks build them.
func (r *run) probeLayers() {
	r.set("sim.queue_ns_per_event", "ns", median(repeat(probeReps, probeQueue)))
	r.set("pcie.stream_ns_per_tlp", "ns", median(repeat(probeReps, probePCIe)))
	for _, spec := range []dram.Spec{dram.DDR4_2400, dram.HBM2_2000} {
		r.set("dram.stream_ns_per_req."+spec.Name, "ns", median(repeat(probeReps, func() float64 { return probeDRAM(spec) })))
	}
}

func repeat(n int, f func() float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return xs
}

// probeQueue drives sim.NewEventQueue with a self-rescheduling event.
func probeQueue() float64 {
	const events = 1 << 21
	q := sim.NewEventQueue()
	n := 0
	var fire func()
	fire = func() {
		n++
		if n < events {
			q.ScheduleAfter(fire, 100)
		}
	}
	q.ScheduleAfter(fire, 100)
	start := time.Now()
	q.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(q.Executed)
}

// probePCIe streams 1 MiB of 256 B DMA reads through a pcie.NewTree
// fabric between memtest endpoints.
func probePCIe() float64 {
	const bar = 0x1000_0000
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	tree := pcie.NewTree("pcie", eq, reg, pcie.Config{Link: pcie.LinkForGBps(8, 8)}, []mem.AddrRange{mem.Range(bar, 1<<20)})
	dma := memtest.NewRequestor(eq)
	mem.Bind(dma.Port, tree.EP(0).DevPort())
	host := memtest.NewEchoResponder(eq, 0, 1<<21, 50*sim.Nanosecond)
	mem.Bind(tree.RC.UpstreamPort(), host.Port)
	start := time.Now()
	for a := uint64(0); a < 1<<20; a += 256 {
		dma.Send(mem.NewRead(a, 256))
	}
	eq.Run()
	wall := time.Since(start)
	tlps := reg.Lookup("pcie.rc.tlps_up").Value() + reg.Lookup("pcie.rc.tlps_down").Value()
	return float64(wall.Nanoseconds()) / tlps
}

// probeDRAM streams 1 MiB of 256 B reads into dram.New from a memtest
// requestor.
func probeDRAM(spec dram.Spec) float64 {
	const reqs = (1 << 20) / 256
	eq := sim.NewEventQueue()
	d := dram.New("dram", eq, stats.NewRegistry(), dram.Config{Spec: spec, Range: mem.Range(0, 64<<20)})
	req := memtest.NewRequestor(eq)
	mem.Bind(req.Port, d.Port())
	start := time.Now()
	for a := uint64(0); a < 1<<20; a += 256 {
		req.Send(mem.NewRead(a, 256))
	}
	eq.Run()
	return float64(time.Since(start).Nanoseconds()) / reqs
}

// probeViT times one traced ViT-Base point on PCIe-64GB in every traced
// run and checks it against the fixture.
func (r *run) probeViT() error {
	sc := scenario.MustBuiltin("fig9")
	runs, err := sc.Expand(false)
	if err != nil {
		return err
	}
	run := runs[2]
	t := newTracer()
	r.attempted++
	out, cnt, err := t.simulate(sc, run, 0, run.Key)
	if err != nil {
		r.fail(1, "%v", err)
	} else {
		r.checkOutcome(run.Key, out)
		r.checkCounts(run.Key, cnt)
	}
	r.set("vit.sim_ms", "ms", t.medianOf("vit", spanMs))
	r.set("vit.build_ms", "ms", t.medianOf("build", spanMs))
	return nil
}
