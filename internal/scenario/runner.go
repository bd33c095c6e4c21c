package scenario

// This file executes resolved runs: building systems, wrapping them
// as sweep points with canonical fingerprints, and extracting
// declared metrics into outcomes so they survive the result cache.

import (
	"fmt"

	"accesys/internal/core"
	"accesys/internal/cpu"
	"accesys/internal/driver"
	"accesys/internal/sim"
	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// BuildSystem assembles a system together with its kernel driver, the
// standard front door for examples, experiments, and manifest sweeps.
func BuildSystem(cfg core.Config) (*core.System, *driver.Driver) {
	sys := core.Build(cfg)
	dcfg := driver.Config{
		DMMode:     sys.Cfg.Access == core.DM,
		DevMemMode: sys.Cfg.Access == core.DevMem,
		NoIOMMU:    sys.Cfg.SMMU.Bypass,
	}
	drv := driver.New(sys.Cfg.Name+".driver", sys.EQ, sys.Stats, driver.Deps{
		EQ:        sys.EQ,
		Packets:   sys.Packets,
		MMIO:      sys.AttachHostPort("driver"),
		FuncHost:  sys.FuncHost(),
		FuncDev:   sys.FuncDev(),
		SMMU:      sys.SMMU,
		Accel:     sys.Accel,
		BARBase:   core.BARBase,
		HostRange: sys.Cfg.HostRange(),
		DevRange:  sys.Cfg.DevRange(),
		IOVABase:  core.IOVABase,
		Flush:     sys.FlushCaches,
	}, dcfg)
	return sys, drv
}

// TimeGEMM builds the config, runs one timing-only n^3 GEMM, and
// returns the accelerator-visible duration plus the system for stats
// inspection.
func TimeGEMM(cfg core.Config, n int) (sim.Tick, *core.System, driver.Result) {
	sys, drv := BuildSystem(cfg)
	var res driver.Result
	drv.RunGEMM(driver.GEMMSpec{M: n, N: n, K: n}, func(r driver.Result) { res = r })
	sys.Run()
	if res.Completed == 0 {
		panic(fmt.Sprintf("scenario: GEMM under %s never completed", cfg.Name))
	}
	return res.Job.Duration(), sys, res
}

// GEMMPoint wraps one timing-only n^3 GEMM under cfg as a sweep
// point. extract, when non-nil, pulls named metrics out of the
// finished system into the outcome (so they survive the result cache).
func GEMMPoint(cfg core.Config, n int, extract func(*core.System, driver.Result) map[string]float64) sweep.Point {
	return sweep.Point{
		Key:         cfg.Name,
		Fingerprint: sweep.Fingerprint(append([]any{"gemm", n}, cfg.FingerprintParts()...)...),
		Run: func() sweep.Outcome {
			d, sys, res := TimeGEMM(cfg, n)
			out := sweep.Outcome{Dur: d}
			if extract != nil {
				out.Values = extract(sys, res)
			}
			return out
		},
	}
}

// ViTSplit is the measured GEMM/Non-GEMM runtime split for one
// (config, model) pair, scaled to the full model (simulated layer x
// layer count).
type ViTSplit struct {
	GEMM    sim.Tick
	NonGEMM sim.Tick
}

// Total is the end-to-end inference time.
func (v ViTSplit) Total() sim.Tick { return v.GEMM + v.NonGEMM }

// SimViT simulates one encoder layer of the variant under cfg and
// scales the split by the layer count.
func SimViT(cfg core.Config, v workload.ViTVariant) ViTSplit {
	g := workload.ViT(v)
	sys, drv := BuildSystem(cfg)
	devMode := sys.Cfg.Access == core.DevMem

	// Activation arena: where the CPU's Non-GEMM operators stream. In
	// the DevMem configuration activations live in device memory — the
	// NUMA penalty of Fig. 8.
	const arena = 64 << 20
	var actBase uint64
	if devMode {
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
		span := uint64(op.ReadBytes + op.WriteBytes)
		if rot+span >= arena {
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
		rot += span
	}
	step()
	sys.Run()
	if idx != len(g.Items) {
		panic(fmt.Sprintf("scenario: ViT run under %s stalled at item %d/%d", cfg.Name, idx, len(g.Items)))
	}

	return ViTSplit{
		GEMM:    gemmT * sim.Tick(g.Layers),
		NonGEMM: cpuT * sim.Tick(g.Layers),
	}
}

// ViTPoint wraps one (config, model) ViT run as a sweep point. The
// outcome carries the GEMM/Non-GEMM split so it survives the result
// cache, the one place ViT outcomes are remembered.
func ViTPoint(cfg core.Config, v workload.ViTVariant) sweep.Point {
	return sweep.Point{
		Key:         cfg.Name + "/" + v.Name,
		Fingerprint: sweep.Fingerprint(append([]any{"vit", v}, cfg.FingerprintParts()...)...),
		Run: func() sweep.Outcome {
			t := SimViT(cfg, v)
			return sweep.Outcome{
				Dur: t.Total(),
				Values: map[string]float64{
					"gemm":    float64(t.GEMM),
					"nongemm": float64(t.NonGEMM),
				},
			}
		},
	}
}

// Split reads a ViT outcome back into its runtime split.
func Split(o sweep.Outcome) ViTSplit {
	return ViTSplit{GEMM: o.Tick("gemm"), NonGEMM: o.Tick("nongemm")}
}

// smmuStats are the per-run SMMU statistics of Table IV, looked up
// under <config name>.smmu.<stat>.
var smmuStats = []string{
	"translations", "trans_ns", "ptws", "ptw_ns", "utlb_lookups", "utlb_misses",
}

// metricGroups name the extraction sets a scenario can request.
var metricGroups = map[string]string{
	"pages": "SMMU pages mapped for the job's buffers",
	"smmu":  "translation statistics (skipped when the SMMU is bypassed)",
	"accel": "accelerator-side totals: tiles, bytes in/out, compute-busy time",
}

func metricNames() string { return sortedKeys(metricGroups) }

// extractor builds the per-run metric extraction closure for the
// scenario's declared groups, or nil when none are declared.
func (s *Scenario) extractor(r Run) func(*core.System, driver.Result) map[string]float64 {
	if len(s.Metrics) == 0 {
		return nil
	}
	name := r.Cfg.Name
	bypass := r.Cfg.SMMU.Bypass
	groups := append([]string{}, s.Metrics...)
	return func(sys *core.System, res driver.Result) map[string]float64 {
		out := map[string]float64{}
		for _, g := range groups {
			switch g {
			case "pages":
				out["pages"] = float64(res.PagesMapped)
			case "smmu":
				if bypass {
					continue
				}
				pre := name + ".smmu."
				for _, stat := range smmuStats {
					out[stat] = sys.Stats.Lookup(pre + stat).Value()
				}
			case "accel":
				out["tiles"] = float64(res.Job.Tiles)
				out["bytes_in"] = float64(res.Job.BytesIn)
				out["bytes_out"] = float64(res.Job.BytesOut)
				out["compute_busy_ns"] = float64(res.Job.ComputeBusy.Nanoseconds())
			}
		}
		return out
	}
}

// pointFor wraps one resolved run as an engine-ready sweep point.
func (s *Scenario) pointFor(r Run) sweep.Point {
	var p sweep.Point
	switch s.Workload.Kind {
	case "vit":
		p = ViTPoint(r.Cfg, r.Model)
	case "farm":
		p = FarmPoint(r.Cfg, r.N)
	case "tenants":
		p = TenantsPoint(r.Cfg, r.Tenants)
	default:
		p = GEMMPoint(r.Cfg, r.N, s.extractor(r))
	}
	p.Key = r.Key
	return p
}

// Points converts resolved runs into engine-ready sweep points.
func (s *Scenario) Points(runs []Run) []sweep.Point {
	points := make([]sweep.Point, len(runs))
	for i, r := range runs {
		points[i] = s.pointFor(r)
	}
	return points
}
