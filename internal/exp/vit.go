package exp

import (
	"fmt"

	"accesys/internal/analytic"
	"accesys/internal/core"
	"accesys/internal/scenario"
	"accesys/internal/workload"
)

// vitConfigs returns the four system configurations of Section V.C in
// the row order the figures report (matching the fig7/8/9 scenarios'
// preset axis).
func vitConfigs() []core.Config {
	return []core.Config{core.PCIe2GB(), core.PCIe8GB(), core.PCIe64GB(), core.DevMemCfg()}
}

// vitSweep runs the named scenario's (config x model) matrix through
// the engine and returns the GEMM/Non-GEMM splits keyed by config then
// model name. ViT runs are identified by their physical system, so the
// Fig. 7/8/9 trio share outcomes through the options' result cache.
func vitSweep(opt Options, id string) map[string]map[string]scenario.ViTSplit {
	_, runs, outs := sweepScenario(opt, id)
	times := map[string]map[string]scenario.ViTSplit{}
	for i, r := range runs {
		if times[r.Cfg.Name] == nil {
			times[r.Cfg.Name] = map[string]scenario.ViTSplit{}
		}
		times[r.Cfg.Name][r.Model.Name] = scenario.Split(outs[i])
	}
	return times
}

// Fig7Transformer reproduces Fig. 7: end-to-end ViT inference time
// across the four system configurations, reported as speedup over
// PCIe-2GB.
func Fig7Transformer(opt Options) *Result {
	r := &Result{
		ID:      "fig7",
		Title:   scenario.MustBuiltin("fig7").TitleFor(opt.Full),
		Headers: []string{"config", "ViT-Base", "ViT-Large", "ViT-Huge", "speedup(Base)"},
	}
	models := workload.Variants()
	times := vitSweep(opt, "fig7")

	base := times["PCIe-2GB"]
	for _, cfg := range vitConfigs() {
		row := []string{cfg.Name}
		for _, v := range models {
			row = append(row, fmt.Sprintf("%.2fms", times[cfg.Name][v.Name].Total().Seconds()*1e3))
		}
		sp := float64(base[models[0].Name].Total()) / float64(times[cfg.Name][models[0].Name].Total())
		row = append(row, fmt.Sprintf("%.2fx", sp))
		r.Rows = append(r.Rows, row)
	}

	sp64 := float64(base["ViT-Base"].Total()) / float64(times["PCIe-64GB"]["ViT-Base"].Total())
	devVs64 := float64(times["DevMem"]["ViT-Base"].Total()) / float64(times["PCIe-64GB"]["ViT-Base"].Total())
	r.Note("paper: PCIe-64GB reaches 2.5-3.4x over PCIe-2GB; DevMem slightly worse than PCIe-64GB")
	r.Note("measured: PCIe-64GB speedup %.2fx (Base); DevMem/PCIe-64GB time ratio %.2f", sp64, devVs64)
	return r
}

// Fig8Split reproduces Fig. 8: the same runs split into GEMM and
// Non-GEMM components.
func Fig8Split(opt Options) *Result {
	r := &Result{
		ID:      "fig8",
		Title:   scenario.MustBuiltin("fig8").TitleFor(opt.Full),
		Headers: []string{"config", "model", "gemm_ms", "nongemm_ms", "nongemm_share"},
	}
	times := vitSweep(opt, "fig8")
	for _, cfg := range vitConfigs() {
		for _, v := range workload.Variants() {
			t := times[cfg.Name][v.Name]
			r.AddRow(cfg.Name, v.Name,
				fmt.Sprintf("%.2f", t.GEMM.Seconds()*1e3),
				fmt.Sprintf("%.2f", t.NonGEMM.Seconds()*1e3),
				fmt.Sprintf("%.0f%%", 100*float64(t.NonGEMM)/float64(t.Total())))
		}
	}

	dev := times["DevMem"][workload.ViTLarge.Name]
	pcie := times["PCIe-8GB"][workload.ViTLarge.Name]
	gemmWin := float64(pcie.GEMM) / float64(dev.GEMM)
	nonPenalty := float64(dev.NonGEMM) / float64(pcie.NonGEMM)
	r.Note("paper: DevMem best at GEMM but up to 500%% Non-GEMM overhead vs PCIe systems (NUMA)")
	r.Note("measured (ViT-Large): DevMem GEMM %.2fx faster than PCIe-8GB; Non-GEMM %.1fx slower", gemmWin, nonPenalty)
	return r
}

// Fig9Model reproduces Fig. 9: the composition model swept over the
// Non-GEMM fraction, with DevMem-vs-PCIe crossovers.
func Fig9Model(opt Options) *Result {
	r := &Result{
		ID:      "fig9",
		Title:   scenario.MustBuiltin("fig9").TitleFor(opt.Full),
		Headers: []string{"w_nongemm", "PCIe-2GB", "PCIe-8GB", "PCIe-64GB", "DevMem"},
	}
	m := analytic.Composition{}
	configs := vitConfigs()
	times := vitSweep(opt, "fig9")
	units := map[string]analytic.Config{}
	for _, cfg := range configs {
		t := times[cfg.Name][workload.ViTBase.Name]
		units[cfg.Name] = analytic.Config{
			Name:     cfg.Name,
			GEMMNs:   t.GEMM.Nanoseconds(),
			NonGEMMs: t.NonGEMM.Nanoseconds(),
		}
	}

	for i := 0; i <= 10; i++ {
		w := float64(i) / 10
		row := []string{fmt.Sprintf("%.1f", w)}
		for _, cfg := range configs {
			row = append(row, fmt.Sprintf("%.2fms", m.TimeNs(units[cfg.Name], w)/1e6))
		}
		r.Rows = append(r.Rows, row)
	}

	r.Note("paper: DevMem preferable below a Non-GEMM-fraction threshold that shrinks with PCIe bandwidth (34.31%%, 10.16%%, 4.27%%)")
	var last float64 = 1
	monotonic := true
	for _, name := range []string{"PCIe-2GB", "PCIe-8GB", "PCIe-64GB"} {
		w, ok := m.Crossover(units["DevMem"], units[name])
		if !ok {
			r.Note("measured: no interior crossover vs %s (one config dominates)", name)
			continue
		}
		r.Note("measured: DevMem beats %s for Non-GEMM fraction < %.2f%%", name, 100*w)
		if w > last {
			monotonic = false
		}
		last = w
	}
	r.Note("crossovers shrink with PCIe bandwidth = %v", monotonic)
	return r
}
