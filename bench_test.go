// Package accesys_bench hosts the benchmark harness: the recorded
// throughput trajectories (BENCH_*.json, written by `make bench` and
// compared by `make benchcheck`), benchmarks of single layers (system
// build, one fig4 point, a warm fig4 re-run, the analytic backend, a
// ViT layer), and ablations of modelled design choices (local buffer,
// access method, SMMU, host DRAM, cut-through forwarding). The paper's
// figures are not benchmarked here: the golden suite (`make golden`)
// re-runs every figure's matrix and checks its rows.
package accesys_bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"accesys/internal/bench"
	"accesys/internal/core"
	"accesys/internal/dram"
	"accesys/internal/driver"
	"accesys/internal/explore"
	"accesys/internal/pcie"
	"accesys/internal/scenario"
	"accesys/internal/shard"
	"accesys/internal/sim"
	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// recordBest merges records into the named trajectory file under
// bench.Dir, keeping the higher value wherever a (benchmark, metric)
// pair is already recorded. This is the perf ratchet: `make bench`
// can only improve the committed numbers, so a genuine regression
// shows up as a benchcheck failure instead of silently overwriting
// the baseline. To deliberately re-baseline (new host), delete the
// file and re-run `make bench`.
func recordBest(b *testing.B, name string, recs []bench.Record) {
	b.Helper()
	path := filepath.Join(bench.Dir("."), name)
	if old, err := bench.ReadFile(path); err == nil {
		prev := make(map[string]bench.Record, len(old))
		for _, r := range old {
			prev[r.Benchmark+"\x00"+r.Metric] = r
		}
		for i, r := range recs {
			if o, ok := prev[r.Benchmark+"\x00"+r.Metric]; ok && o.Value > r.Value {
				recs[i] = o
			}
		}
	}
	if err := bench.WriteFile(path, recs); err != nil {
		b.Logf("bench trajectory not recorded: %v", err)
	}
}

// BenchmarkAblationLocalBuffer quantifies the local-buffer blocking
// choice: smaller buffers force B-panel reloads (more PCIe traffic).
func BenchmarkAblationLocalBuffer(b *testing.B) {
	for _, kb := range []int{128, 256, 1024} {
		b.Run(fmt.Sprintf("%dKiB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PCIe8GB()
				cfg.Name = fmt.Sprintf("abl-buf-%d-%d", kb, i)
				cfg.Accel.LocalBufBytes = kb << 10
				d, _, _ := scenario.TimeGEMM(cfg, 256)
				b.ReportMetric(d.Seconds()*1e6, "sim_us")
			}
		})
	}
}

// BenchmarkAblationAccessMethod compares the three access methods on
// one workload.
func BenchmarkAblationAccessMethod(b *testing.B) {
	methods := []core.AccessMethod{core.DC, core.DM, core.DevMem}
	for _, m := range methods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var cfg core.Config
				if m == core.DevMem {
					cfg = core.DevMemCfg()
				} else {
					cfg = core.PCIe8GB()
					cfg.Access = m
				}
				cfg.Name = fmt.Sprintf("abl-acc-%s-%d", m, i)
				d, _, _ := scenario.TimeGEMM(cfg, 256)
				b.ReportMetric(d.Seconds()*1e6, "sim_us")
			}
		})
	}
}

// BenchmarkAblationSMMU measures translation cost directly: SMMU on vs
// bypassed.
func BenchmarkAblationSMMU(b *testing.B) {
	for _, bypass := range []bool{false, true} {
		name := "translated"
		if bypass {
			name = "bypass"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PCIe8GB()
				cfg.Name = fmt.Sprintf("abl-smmu-%v-%d", bypass, i)
				cfg.SMMU.Bypass = bypass
				d, _, _ := scenario.TimeGEMM(cfg, 256)
				b.ReportMetric(d.Seconds()*1e6, "sim_us")
			}
		})
	}
}

// BenchmarkAblationHostMemTech sweeps the banked DRAM technologies on
// the host side (Table III presets) behind a fast link.
func BenchmarkAblationHostMemTech(b *testing.B) {
	for _, spec := range []dram.Spec{dram.DDR3_1600, dram.DDR4_2400, dram.DDR5_3200, dram.HBM2_2000} {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PCIe64GB()
				cfg.Name = fmt.Sprintf("abl-mem-%s-%d", spec.Name, i)
				cfg.HostSpec = spec
				d, _, _ := scenario.TimeGEMM(cfg, 256)
				b.ReportMetric(d.Seconds()*1e6, "sim_us")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// events (and simulated ticks) per wall second on the pinned GEMM
// streaming workload (256^3 over PCIe-8GB). The wall clock covers
// only the event loop, not system construction, and the measurement
// lands in BENCH_sim.json — the main line of the perf trajectory.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events, ticks float64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		cfg := core.PCIe8GB()
		cfg.Name = fmt.Sprintf("throughput-%d", i)
		sys, drv := scenario.BuildSystem(cfg)
		drv.RunGEMM(driver.GEMMSpec{M: 256, N: 256, K: 256}, func(driver.Result) {})
		start := time.Now()
		sys.Run()
		wall += time.Since(start)
		events = float64(sys.EQ.Executed)
		ticks = float64(sys.EQ.Now())
		b.ReportMetric(events, "events")
	}
	b.StopTimer()
	secs := wall.Seconds()
	if secs <= 0 {
		return
	}
	ctx := map[string]float64{"events_per_run": events, "gemm_n": 256}
	recordBest(b, "BENCH_sim.json", []bench.Record{
		{Benchmark: "SimulatorThroughput", Metric: "events_per_sec",
			Value: events * float64(b.N) / secs, Unit: "events/s", Context: ctx},
		{Benchmark: "SimulatorThroughput", Metric: "ticks_per_sec",
			Value: ticks * float64(b.N) / secs, Unit: "ticks/s", Context: ctx},
	})
}

// BenchmarkSystemBuild measures assembling one PCIe-8GB system and its
// driver — the fixed cost every cold sweep point pays before its first
// event. It is a layer benchmark and is not part of the BENCH_*.json
// ratchet.
func BenchmarkSystemBuild(b *testing.B) {
	cfg := core.PCIe8GB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, _ := scenario.BuildSystem(cfg)
		if sys.LLC == nil {
			b.Fatal("no LLC")
		}
	}
}

// BenchmarkFingerprint times building one point's cache-key material:
// the fingerprint a PCIe-8GB GEMM-512 point gets, which a warm re-run
// computes for every point before its cache hit. The config goes by
// pointer, as Scenario.Points passes each run's. It reports the
// fingerprint's length in bytes/fp (the key every cache record and
// profile digest carries). It is a layer benchmark and is not part of
// the BENCH_*.json ratchet.
func BenchmarkFingerprint(b *testing.B) {
	cfg := core.PCIe8GB()
	b.ReportAllocs()
	var fp string
	for i := 0; i < b.N; i++ {
		fp = sweep.Fingerprint("gemm", 512, &cfg)
	}
	b.ReportMetric(float64(len(fp)), "bytes/fp")
}

// BenchmarkFig4SmallPacket times one fig4 point at the matrix's most
// event-heavy packet size: GEMM-512 over PCIe-8GB with 64-B host DMA
// packets, system build plus event loop. ns/event divides the wall
// time by the events dispatched. It is a layer benchmark and is not
// part of the BENCH_*.json ratchet.
func BenchmarkFig4SmallPacket(b *testing.B) {
	cfg := core.PCIe8GB()
	cfg.Accel.HostDMA.BurstBytes = 64
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		_, sys, _ := scenario.TimeGEMM(cfg, 512)
		events += sys.EQ.Executed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSmallPointsCold times the small cold points a design-space
// sweep is made of: one iteration builds and runs GEMM n ∈ {32, 64,
// 96, 128} on PCIe-8GB, PCIe-64GB and DevMem, twelve systems in all.
// At these sizes a point lasts a few milliseconds, so the garbage
// collector's cycles overlap the event loop; run it with -cpu 1 and
// GODEBUG=gctrace=1 to see how long each mark phase holds the write
// barrier on. ns/event divides the wall time by the events
// dispatched. It is a layer benchmark and is not part of the
// BENCH_*.json ratchet.
func BenchmarkSmallPointsCold(b *testing.B) {
	cfgs := []func() core.Config{core.PCIe8GB, core.PCIe64GB, core.DevMemCfg}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			for _, n := range []int{32, 64, 96, 128} {
				_, sys, _ := scenario.TimeGEMM(cfg(), n)
				events += sys.EQ.Executed
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSweepThroughput measures end-to-end sweep speed over the
// fig4 matrix, cold (every point simulated) and warm (every point
// recalled from the on-disk cache), single-worker so the numbers are
// comparable across hosts. Both land in BENCH_sweep.json.
func BenchmarkSweepThroughput(b *testing.B) {
	sc := scenario.MustBuiltin("fig4")
	runs, err := sc.Expand(false)
	if err != nil {
		b.Fatal(err)
	}
	points := sc.Points(runs)
	var coldWall, warmWall time.Duration
	for i := 0; i < b.N; i++ {
		cache, err := sweep.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		eng := &sweep.Engine{Jobs: 1, Cache: cache}
		eng.Run(points)
		coldWall += time.Since(start)
		start = time.Now()
		warm := &sweep.Engine{Jobs: 1, Cache: cache}
		warm.Run(points)
		warmWall += time.Since(start)
		if _, misses, _ := cache.Stats(); misses != len(points) {
			b.Fatalf("warm pass missed: %d misses for %d points", misses, len(points))
		}
	}
	b.StopTimer()
	n := float64(len(points) * b.N)
	b.ReportMetric(float64(len(points)), "points")
	if coldWall <= 0 || warmWall <= 0 {
		return
	}
	ctx := map[string]float64{"points": float64(len(points)), "jobs": 1}
	recordBest(b, "BENCH_sweep.json", []bench.Record{
		{Benchmark: "SweepThroughput/cold", Metric: "points_per_sec",
			Value: n / coldWall.Seconds(), Unit: "points/s", Context: ctx},
		{Benchmark: "SweepThroughput/warm", Metric: "points_per_sec",
			Value: n / warmWall.Seconds(), Unit: "points/s", Context: ctx},
	})
}

// BenchmarkViTLayer measures one simulated ViT-Base encoder layer on
// PCIe-8GB end to end: system build plus the chain of GEMM offloads
// and CPU operators.
func BenchmarkViTLayer(b *testing.B) {
	g := workload.ViT(workload.ViTBase)
	b.ReportMetric(float64(len(g.Items)), "ops/layer")
	for i := 0; i < b.N; i++ {
		if t := scenario.SimViT(core.PCIe8GB(), workload.ViTBase); t.Total() == 0 {
			b.Fatal("no simulated time")
		}
	}
}

// BenchmarkWarmCacheSweep measures a whole warm re-run of the fig4
// matrix through Scenario.Run, the front door `accesys run`, `sweep`
// and the serve daemon use: the engine serving every point from the
// on-disk result cache, then the figure's table. The built-in's
// decode, runs and fingerprinted points are built once per process
// (before the timer), so this is the cost of every re-run after the
// first.
func BenchmarkWarmCacheSweep(b *testing.B) {
	cache, err := sweep.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sc := scenario.MustBuiltin("fig4")
	points, err := sc.PointsFor(false)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range points {
		cache.Put(p.Fingerprint, sweep.Outcome{Dur: sim.Millisecond})
	}
	opt := scenario.Options{Jobs: 1, Cache: cache}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, misses, _ := cache.Stats(); misses != 0 {
		b.Fatalf("warm sweep missed %d points", misses)
	}
	b.ReportMetric(float64(len(points)), "points")
}

// BenchmarkAnalyticBackend measures the full analytic evaluation of a
// built-in matrix: what `accesys equiv` pays on top of (cached) timing
// outcomes.
func BenchmarkAnalyticBackend(b *testing.B) {
	sc := scenario.MustBuiltin("fig4")
	runs, err := sc.Expand(false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if _, err := sc.AnalyticMetrics(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(runs)), "points")
}

// BenchmarkShardMerge measures the distributed-sweep merge step:
// folding pre-seeded shard cache directories into one canonical cache
// (entry import + counter fold), reported as merged points per
// second. The measurement lands in BENCH_shard.json under the unified
// bench-record schema.
func BenchmarkShardMerge(b *testing.B) {
	const shards, perShard = 4, 250
	root := b.TempDir()
	srcs := make([]string, shards)
	salt := "bench-salt"
	for k := range srcs {
		srcs[k] = filepath.Join(root, fmt.Sprintf("src-%d", k))
		cache, err := sweep.Open(srcs[k])
		if err != nil {
			b.Fatal(err)
		}
		cache.Salt = salt
		var sum shard.Summary
		sum.Scenario = "bench"
		sum.Shard, sum.Of, sum.Salt, sum.Points = k, shards, salt, perShard
		for i := 0; i < perShard; i++ {
			cache.Put(fmt.Sprintf("bench-shard-%d-point-%d", k, i), sweep.Outcome{Dur: sim.Tick(i + 1)})
		}
		data, err := json.Marshal(sum)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(srcs[k], shard.SummaryName), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := time.Now()
	merged := 0
	for i := 0; i < b.N; i++ {
		dst := filepath.Join(root, fmt.Sprintf("dst-%d", i))
		st, err := shard.Merge(dst, srcs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Imported != shards*perShard {
			b.Fatalf("imported %d of %d entries", st.Imported, shards*perShard)
		}
		merged += st.Imported
	}
	elapsed := time.Since(start)
	pps := float64(merged) / elapsed.Seconds()
	b.ReportMetric(pps, "points/s")
	b.StopTimer()
	recordBest(b, "BENCH_shard.json", []bench.Record{
		// Tol: merge throughput is filesystem-bound and varies ~2x
		// run to run, so it carries its own wide tolerance band.
		{Benchmark: "ShardMerge", Metric: "points_per_sec", Value: pps, Unit: "points/s", Tol: 0.70,
			Context: map[string]float64{"shards": shards, "points": shards * perShard}},
	})
}

// Guard: the paper's link presets must keep their raw bandwidth.
func TestPaperLinkPresets(t *testing.T) {
	if got := pcie.LinkForGBps(2, 4).RawGBps(); got != 2 {
		t.Fatalf("PCIe-2GB preset = %v", got)
	}
	if got := pcie.LinkForGBps(64, 16).RawGBps(); got != 64 {
		t.Fatalf("PCIe-64GB preset = %v", got)
	}
}

// BenchmarkAblationCutThrough compares store-and-forward hops (the
// paper's model) against cut-through forwarding on a large-packet
// workload where S&F stalls bite hardest.
func BenchmarkAblationCutThrough(b *testing.B) {
	for _, cut := range []bool{false, true} {
		name := "store-and-forward"
		if cut {
			name = "cut-through"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PCIe8GB()
				cfg.Name = fmt.Sprintf("abl-cut-%v-%d", cut, i)
				cfg.PCIe.CutThrough = cut
				cfg.Accel.HostDMA.BurstBytes = 4096
				d, _, _ := scenario.TimeGEMM(cfg, 256)
				b.ReportMetric(d.Seconds()*1e6, "sim_us")
			}
		})
	}
}

// BenchmarkExplore measures the search-driven front-end end to end:
// one seeded random search per iteration over a six-point matrix with
// a two-point budget, cold every time (fresh cache state per run), so
// the number covers analytic screening, ranking, budget admission,
// and the promoted timing simulations. Reported as points screened
// per second and promotions per second; the measurement lands in
// BENCH_explore.json under the unified bench-record schema.
func BenchmarkExplore(b *testing.B) {
	sc := func() *scenario.Scenario {
		return &scenario.Scenario{
			Name:     "bench-explore",
			Base:     "pcie8gb",
			Workload: scenario.Workload{Kind: "gemm", N: scenario.Size{Quick: 64, Full: 64}},
			Axes: []scenario.Axis{
				{Name: "lanes", Values: []scenario.Value{4.0, 8.0}},
				{Name: "packet_bytes", Values: []scenario.Value{64.0, 128.0, 256.0}},
			},
			Explore: &scenario.ExploreSpec{
				Objective: scenario.Objective{Metric: "exec", Goal: "min"},
				Strategy:  "random",
				Seed:      7,
				Budget:    "2",
			},
		}
	}
	b.ResetTimer()
	start := time.Now()
	screened, promoted := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := explore.Run(sc(), scenario.Options{Jobs: runtime.NumCPU()}, explore.Params{})
		if err != nil {
			b.Fatal(err)
		}
		sum := rep.Trace.Summary
		if sum.Screened == 0 || sum.Promoted == 0 {
			b.Fatalf("degenerate search: %+v", sum)
		}
		screened += sum.Screened
		promoted += sum.Promoted
	}
	elapsed := time.Since(start)
	sps := float64(screened) / elapsed.Seconds()
	pps := float64(promoted) / elapsed.Seconds()
	b.ReportMetric(sps, "screened/s")
	b.ReportMetric(pps, "promotions/s")
	b.StopTimer()
	recordBest(b, "BENCH_explore.json", []bench.Record{
		// Tol: each promotion is a full cold simulation, so the rates
		// inherit simulator wall-clock noise; wide band like ShardMerge.
		{Benchmark: "Explore", Metric: "screened_per_sec", Value: sps, Unit: "points/s", Tol: 0.60,
			Context: map[string]float64{"space": 6, "budget": 2}},
		{Benchmark: "Explore", Metric: "promotions_per_sec", Value: pps, Unit: "points/s", Tol: 0.60,
			Context: map[string]float64{"space": 6, "budget": 2}},
	})
}
