package scenario

// This file is the analytic backend of the cross-backend equivalence
// harness: it maps a resolved Run onto the closed-form models of
// internal/analytic, deriving every model parameter from the same
// core.Config the timing simulation runs, so the two backends can be
// compared point by point with no fitted constants.

import (
	"errors"
	"fmt"
	"math"

	"accesys/internal/accel"
	"accesys/internal/analytic"
	"accesys/internal/core"
	"accesys/internal/smmu"
	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// ErrNoModel marks runs the analytic backend has no closed-form
// counterpart for (multi-accelerator contention outside the farm
// bound, 2-level tree shapes, mixed-kind farms, tenant schedules).
// The equivalence harness classifies such points "nomodel" instead of
// misreporting them as divergence failures; other callers should
// errors.Is-test for it before treating a missing model as fatal.
var ErrNoModel = errors.New("no analytic model")

// noModelf wraps ErrNoModel with context.
func noModelf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrNoModel)...)
}

// AnalyticSpec configures the equivalence comparison for a scenario.
// Tolerances are relative divergence |timing-analytic|/timing; the
// zero value defers to the harness defaults.
type AnalyticSpec struct {
	// Tol is the fail threshold (0 = harness default).
	Tol float64 `json:"tol,omitempty"`
	// Warn is the warn threshold (0 = half the fail threshold).
	Warn float64 `json:"warn,omitempty"`
}

// memory describes the memory system one stream lands in.
type memory struct {
	gbps  float64
	latNs float64
}

// hostMemory resolves the host-side memory system of a config.
func hostMemory(cfg core.Config) memory {
	if cfg.HostSimple != nil {
		return memory{gbps: cfg.HostSimple.BandwidthGBps, latNs: cfg.HostSimple.Latency.Nanoseconds()}
	}
	return memory{gbps: cfg.HostSpec.InterleavedStreamGBps(), latNs: cfg.HostSpec.AccessLatencyNs()}
}

// devMemory resolves the device-side memory system of a config.
func devMemory(cfg core.Config) memory {
	return memory{gbps: cfg.DevSpec.InterleavedStreamGBps(), latNs: cfg.DevSpec.AccessLatencyNs()}
}

// fabricOf derives the analytic fabric constants from a resolved PCIe
// configuration.
func fabricOf(cfg core.Config) analytic.Fabric {
	p := cfg.PCIe
	return analytic.Fabric{
		EffGBps:        p.Link.EffectiveGBps(),
		HeaderBytes:    p.TLPHeaderBytes,
		PropNs:         p.Link.PropDelay.Nanoseconds(),
		RCNs:           p.RCLatency.Nanoseconds(),
		SwitchNs:       p.SwitchLatency.Nanoseconds(),
		EPNs:           p.EPLatency.Nanoseconds(),
		RCIINs:         p.RCProcII.Nanoseconds(),
		SwitchIINs:     p.SwitchProcII.Nanoseconds(),
		EPIINs:         p.EPProcII.Nanoseconds(),
		RCBufBytes:     p.RCBufBytes,
		SwitchBufBytes: p.SwitchBufBytes,
		EPBufBytes:     p.EPBufBytes,
	}
}

// streams holds the per-byte costs of the operand read path and the C
// write path for one configuration, plus the read fill latency.
type streams struct {
	readNsPerByte  float64
	writeNsPerByte float64
	readFillNs     float64
	startNs        float64
	mem            memory
	// Upstream TLP pipeline floor (zero on the DevMem path).
	upIINs     float64
	readBurst  int
	writeBurst int
}

// devStream models the DevMem data path: the DMA engine streams
// straight into device DRAM over the device bus, so only memory
// bandwidth, access latency, and the request window bound it.
func devStream(cfg core.Config, burst int, mem memory) float64 {
	interval := float64(burst) / mem.gbps
	window := cfg.Accel.DevDMA.WindowBytes / burst
	if window < 1 {
		window = 1
	}
	rtt := mem.latNs + 2*cfg.DevBusLat.Nanoseconds()
	if w := rtt / float64(window); w > interval {
		interval = w
	}
	return interval / float64(burst)
}

// streamsOf derives both data-path streams of a resolved config.
func streamsOf(cfg core.Config) streams {
	if cfg.Access == core.DevMem {
		mem := devMemory(cfg)
		burst := cfg.Accel.DevDMA.BurstBytes
		per := devStream(cfg, burst, mem)
		wburst := min(burst, accel.TileCBytes)
		return streams{
			readNsPerByte:  per,
			writeNsPerByte: devStream(cfg, wburst, mem),
			readFillNs:     mem.latNs + 2*cfg.DevBusLat.Nanoseconds(),
			startNs:        cfg.Accel.DevDMA.StartLatency.Nanoseconds(),
			mem:            mem,
			readBurst:      burst,
			writeBurst:     wburst,
		}
	}
	mem := hostMemory(cfg)
	fabric := fabricOf(cfg)
	bubble := translationBubbleNsPerByte(cfg)
	read := analytic.Stream{
		Fabric:       fabric,
		PayloadBytes: cfg.Accel.HostDMA.BurstBytes,
		Read:         true,
		MemGBps:      mem.gbps,
		MemLatNs:     mem.latNs,
		WindowBytes:  cfg.Accel.HostDMA.WindowBytes,
	}
	write := analytic.Stream{
		Fabric:       fabric,
		PayloadBytes: min(cfg.Accel.HostDMA.BurstBytes, accel.TileCBytes),
		MemGBps:      mem.gbps,
	}
	upII := fabric.RCIINs
	if fabric.SwitchIINs > upII {
		upII = fabric.SwitchIINs
	}
	if fabric.EPIINs > upII {
		upII = fabric.EPIINs
	}
	return streams{
		readNsPerByte:  read.NsPerByte() + bubble,
		writeNsPerByte: write.NsPerByte() + bubble,
		readFillNs:     read.RoundTripNs(),
		startNs:        cfg.Accel.HostDMA.StartLatency.Nanoseconds(),
		mem:            mem,
		upIINs:         upII,
		readBurst:      read.PayloadBytes,
		writeBurst:     write.PayloadBytes,
	}
}

// translationBubbleNsPerByte amortizes the SMMU's per-page pipeline
// stall over the page it covers: a streaming DMA touches each page
// once, misses the micro TLB, and stalls the request pipe for the main
// TLB lookup plus (page tables being far larger than the TLB reach for
// the evaluation workloads) a page-table walk whose leaf PTE read is
// served by the LLC. Bypassed SMMUs stream translation-free.
func translationBubbleNsPerByte(cfg core.Config) float64 {
	if cfg.SMMU.Bypass {
		return 0
	}
	s := cfg.SMMU.Resolved()
	leafReadNs := (2*cfg.BusLatency + core.LLCHitLatency).Nanoseconds()
	return (s.TLBLatency.Nanoseconds() + leafReadNs) / smmu.PageBytes
}

// perTileNs returns the systolic-array time per output tile at depth k.
func perTileNs(cfg core.Config, k int) float64 {
	if cfg.Accel.ComputeOverride > 0 {
		return cfg.Accel.ComputeOverride.Nanoseconds()
	}
	cycles := cfg.Accel.Backend.TileCycles(k)
	return float64(cycles) * 1000 / cfg.Accel.ClockMHz
}

// farmStreams derives a farm member's data-path streams: the solo
// streams floored by the member's 1/k timeshare of the segments every
// member serializes on. On host paths that is the shared RC<->switch
// link plus the RC and switch pipelines (each member's private
// switch-EP link is not the bottleneck) and host memory bandwidth; on
// the DevMem path the members contend only on device memory. This is
// the first-order shared-switch serialization bound — exact at k=1,
// a lower bound on contention beyond it.
func farmStreams(cfg core.Config, k int) streams {
	st := streamsOf(cfg)
	if k <= 1 {
		return st
	}
	kf := float64(k)
	if cfg.Access == core.DevMem {
		shared := 1 / st.mem.gbps
		st.readNsPerByte = math.Max(st.readNsPerByte, kf*shared)
		st.writeNsPerByte = math.Max(st.writeNsPerByte, kf*shared)
		return st
	}
	f := fabricOf(cfg)
	sharedSeg := func(payload int) float64 {
		per := f.SerNs(payload + f.HeaderBytes)
		if f.RCIINs > per {
			per = f.RCIINs
		}
		if f.SwitchIINs > per {
			per = f.SwitchIINs
		}
		if memNs := float64(payload) / st.mem.gbps; memNs > per {
			per = memNs
		}
		return per / float64(payload)
	}
	st.readNsPerByte = math.Max(st.readNsPerByte, kf*sharedSeg(st.readBurst))
	st.writeNsPerByte = math.Max(st.writeNsPerByte, kf*sharedSeg(st.writeBurst))
	return st
}

// gemmModel builds the phase model of one M x N x K GEMM under the
// resolved config.
func gemmModel(cfg core.Config, m, n, k int) analytic.GEMMModel {
	return gemmModelWith(cfg, streamsOf(cfg), m, n, k)
}

// gemmModelWith builds the phase model over explicit data-path
// streams (the farm bound swaps in contention-floored ones).
func gemmModelWith(cfg core.Config, st streams, m, n, k int) analytic.GEMMModel {
	tilesM, tilesN := m/accel.Dim, n/accel.Dim
	aPanel := accel.APanelBytes(k)
	avail := cfg.Accel.LocalBufBytes - accel.BPanelBytes(k) - accel.TileCBytes
	rbTiles := avail / aPanel
	if rbTiles > tilesM {
		rbTiles = tilesM
	}
	if rbTiles < 1 {
		rbTiles = 1
	}
	memGBps := st.mem.gbps
	return analytic.GEMMModel{
		TilesM:          tilesM,
		TilesN:          tilesN,
		RBTiles:         rbTiles,
		APanelBytes:     aPanel,
		BPanelBytes:     accel.BPanelBytes(k),
		TileCBytes:      accel.TileCBytes,
		PerTileNs:       perTileNs(cfg, k),
		ReadNsPerByte:   st.readNsPerByte,
		WriteNsPerByte:  st.writeNsPerByte,
		ReadFillNs:      st.readFillNs,
		StartNs:         st.startNs,
		MemGBps:         memGBps,
		UpIINs:          st.upIINs,
		ReadBurstBytes:  st.readBurst,
		WriteBurstBytes: st.writeBurst,
	}
}

// cpuStreamNsPerByte models the CPU's streaming costs per byte, read
// and write separately: reads are cacheline fills under the core's MLP
// window, from host DRAM (host placements) or across PCIe into device
// memory (the DevMem NUMA path of Fig. 8). Full-line streaming writes
// install directly in the L1 without a fetch and drain as overlapped
// writebacks, so they cost only bandwidth, never the fill latency.
func cpuStreamNsPerByte(cfg core.Config, devResident bool) (perRead, perWrite float64) {
	const lineBytes = 64
	mlp := float64(cfg.CPUMLP)
	var mem memory
	var lineLatNs float64
	if devResident {
		mem = devMemory(cfg)
		f := fabricOf(cfg)
		// Host-initiated line read: request TLP down, completion up,
		// plus the device bus and DRAM behind the endpoint.
		down := f.RCNs + f.SerNs(f.HeaderBytes) + f.PropNs + f.SwitchNs +
			f.SerNs(f.HeaderBytes) + f.PropNs + f.EPNs
		up := f.EPNs + f.SerNs(lineBytes+f.HeaderBytes) + f.PropNs + f.SwitchNs +
			f.SerNs(lineBytes+f.HeaderBytes) + f.PropNs + f.RCNs
		lineLatNs = down + mem.latNs + up + 2*cfg.DevBusLat.Nanoseconds()
	} else {
		mem = hostMemory(cfg)
		// L1 miss through the LLC into DRAM.
		lineLatNs = mem.latNs + 2*cfg.BusLatency.Nanoseconds() + core.LLCHitLatency.Nanoseconds()
	}
	// Both ways through the L1 and the memory bus.
	lineLatNs += 2 * (core.L1HitLatency + cfg.BusLatency).Nanoseconds()
	interval := lineBytes / mem.gbps
	if w := lineLatNs / mlp; w > interval {
		interval = w
	}
	return interval / lineBytes, 1 / mem.gbps
}

// devWritebackNsPerByte is the cost of draining CPU writebacks into
// device memory: dirty activation lines leave the L1 as posted 64 B
// MemWr TLPs crossing the fabric toward the endpoint, one per
// initiation interval at the bottleneck hop.
func devWritebackNsPerByte(cfg core.Config) float64 {
	const lineBytes = 64
	mem := devMemory(cfg)
	wb := analytic.Stream{
		Fabric:       fabricOf(cfg),
		PayloadBytes: lineBytes,
		// Writeback TLPs travel RC -> switch -> endpoint, the same
		// credit chain completions use; no request window applies.
		Read:    true,
		MemGBps: mem.gbps,
	}
	return wb.NsPerByte()
}

// TimingMetrics reads a timing outcome's metrics in nanoseconds, keyed
// like AnalyticMetrics: "exec" always, plus "gemm"/"nongemm" when the
// outcome carries a ViT split (stored in ticks).
func TimingMetrics(out sweep.Outcome) map[string]float64 {
	m := map[string]float64{"exec": out.Dur.Nanoseconds()}
	if _, ok := out.Values["gemm"]; ok {
		m["gemm"] = out.Tick("gemm").Nanoseconds()
		m["nongemm"] = out.Tick("nongemm").Nanoseconds()
	}
	return m
}

// AnalyticMetrics evaluates the analytic backend for one resolved run,
// returning predictions in nanoseconds keyed like the harness's
// normalized metrics: "exec" always, plus "gemm"/"nongemm" for ViT
// runs (mirroring the timing outcome's split values).
func (s *Scenario) AnalyticMetrics(r Run) (map[string]float64, error) {
	cfg := r.Cfg.Resolved()
	if !cfg.PCIe.Topology.Flat() {
		return nil, noModelf("scenario %s: analytic: 2-level tree topology", s.Name)
	}
	switch s.Workload.Kind {
	case "", "gemm":
		if cfg.Accelerators > 1 {
			return nil, noModelf("scenario %s: analytic: %d accelerators contend on the fabric", s.Name, cfg.Accelerators)
		}
		// A single-member cluster of any kind models exactly: substitute
		// the member's resolved accelerator config for the base one.
		cfg.Accel = cfg.MemberAccel(0)
		if r.N <= 0 || r.N%accel.Dim != 0 {
			return nil, fmt.Errorf("scenario %s: analytic: bad GEMM size %d", s.Name, r.N)
		}
		m := gemmModel(cfg, r.N, r.N, r.N)
		return map[string]float64{"exec": m.ExecNs()}, nil
	case "vit":
		if cfg.Accelerators > 1 {
			return nil, noModelf("scenario %s: analytic: %d accelerators contend on the fabric", s.Name, cfg.Accelerators)
		}
		cfg.Accel = cfg.MemberAccel(0)
		g := workload.ViT(r.Model)
		comp := vitComposition(cfg, g)
		return map[string]float64{
			"exec":    comp.GEMMNs + comp.NonGEMMs,
			"gemm":    comp.GEMMNs,
			"nongemm": comp.NonGEMMs,
		}, nil
	case "farm":
		// Homogeneous farms on a flat switch get the first-order
		// serialization bound; mixed-kind members finish at different
		// times and interleave in ways the bound does not capture.
		k := cfg.Accelerators
		kind := cfg.MemberKind(0)
		for i := 1; i < k; i++ {
			if cfg.MemberKind(i) != kind {
				return nil, noModelf("scenario %s: analytic: mixed-kind farm", s.Name)
			}
		}
		cfg.Accel = cfg.MemberAccel(0)
		if r.N <= 0 || r.N%accel.Dim != 0 {
			return nil, fmt.Errorf("scenario %s: analytic: bad GEMM size %d", s.Name, r.N)
		}
		m := gemmModelWith(cfg, farmStreams(cfg, k), r.N, r.N, r.N)
		return map[string]float64{"exec": m.ExecNs()}, nil
	case "tenants":
		return nil, noModelf("scenario %s: analytic: tenant schedules", s.Name)
	}
	return nil, fmt.Errorf("scenario %s: analytic: no model for workload %q", s.Name, s.Workload.Kind)
}

// vitComposition derives the analytic.Composition unit times of one
// (config, model) pair: the full-model GEMM portion via the GEMM phase
// model and the Non-GEMM portion via the CPU streaming model — the
// paper's Fig. 9 algebra computed from configuration alone.
//
// Under DevMem the CPU's activation writes are deferred work: they
// install in the L1 as full-line writes and drain across PCIe as
// posted writebacks while the NEXT item runs, so their cost surfaces
// in whichever span follows the op — exactly how the timing backend's
// GEMM/Non-GEMM split attributes them. The item walk below carries
// that pending drain forward instead of charging writes to the op that
// issued them.
func vitComposition(cfg core.Config, g workload.Graph) analytic.Config {
	devResident := cfg.Access == core.DevMem
	perRead, perWrite := cpuStreamNsPerByte(cfg, devResident)
	var drainPerByte float64
	if devResident {
		drainPerByte = devWritebackNsPerByte(cfg)
	}
	clkNs := 1000 / cfg.CPUClockMHz

	var gemmNs, cpuNs, pendingDrainNs float64
	for _, it := range g.Items {
		if j := it.GEMM; j != nil {
			m := gemmModel(cfg, j.M, j.N, j.K)
			gemmNs += m.ExecNs() + pendingDrainNs
			pendingDrainNs = 0
			continue
		}
		op := it.CPU
		compute := float64(op.ComputeCycles) * clkNs
		stream := float64(op.ReadBytes) * perRead
		if !devResident {
			// Host placements absorb writes in the cache hierarchy at
			// memory bandwidth, overlapped with the read stream.
			stream += float64(op.WriteBytes) * perWrite
		}
		if stream > compute {
			compute = stream
		}
		cpuNs += compute + pendingDrainNs
		pendingDrainNs = float64(op.WriteBytes) * drainPerByte
	}
	// A trailing drain belongs to the next layer's first op.
	cpuNs += pendingDrainNs

	layers := float64(g.Layers)
	return analytic.Config{
		Name:     cfg.Name,
		GEMMNs:   gemmNs * layers,
		NonGEMMs: cpuNs * layers,
	}
}
