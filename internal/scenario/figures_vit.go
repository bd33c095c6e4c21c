package scenario

import (
	"fmt"

	"accesys/internal/analytic"
	"accesys/internal/sweep"
	"accesys/internal/workload"
)

// vitTimes keys a (config x model) matrix's GEMM/Non-GEMM splits by
// config then model name, and lists the config names in run order
// (the preset axis's order, the row order the figures report). ViT
// runs are identified by their physical system, so the Fig. 7/8/9 trio
// share outcomes through the options' result cache.
func vitTimes(runs []Run, outs []sweep.Outcome) (map[string]map[string]ViTSplit, []string) {
	times := map[string]map[string]ViTSplit{}
	var configs []string
	for i, r := range runs {
		if times[r.Cfg.Name] == nil {
			times[r.Cfg.Name] = map[string]ViTSplit{}
			configs = append(configs, r.Cfg.Name)
		}
		times[r.Cfg.Name][r.Model.Name] = Split(outs[i])
	}
	return times, configs
}

// fig7Transformer reproduces Fig. 7: end-to-end ViT inference time
// across the four system configurations, reported as speedup over
// PCIe-2GB.
func fig7Transformer(sp *Space, runs []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r := sp.result("config", "ViT-Base", "ViT-Large", "ViT-Huge", "speedup(Base)")
	models := workload.Variants()
	times, configs := vitTimes(runs, outs)

	base := times["PCIe-2GB"]
	for _, cfg := range configs {
		row := []string{cfg}
		for _, v := range models {
			row = append(row, fmt.Sprintf("%.2fms", times[cfg][v.Name].Total().Seconds()*1e3))
		}
		speedup := float64(base[models[0].Name].Total()) / float64(times[cfg][models[0].Name].Total())
		row = append(row, fmt.Sprintf("%.2fx", speedup))
		r.Rows = append(r.Rows, row)
	}

	sp64 := float64(base["ViT-Base"].Total()) / float64(times["PCIe-64GB"]["ViT-Base"].Total())
	devVs64 := float64(times["DevMem"]["ViT-Base"].Total()) / float64(times["PCIe-64GB"]["ViT-Base"].Total())
	r.Note("paper: PCIe-64GB reaches 2.5-3.4x over PCIe-2GB; DevMem slightly worse than PCIe-64GB")
	r.Note("measured: PCIe-64GB speedup %.2fx (Base); DevMem/PCIe-64GB time ratio %.2f", sp64, devVs64)
	return r, nil
}

// fig8Split reproduces Fig. 8: the same runs split into GEMM and
// Non-GEMM components.
func fig8Split(sp *Space, runs []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r := sp.result("config", "model", "gemm_ms", "nongemm_ms", "nongemm_share")
	times, configs := vitTimes(runs, outs)
	for _, cfg := range configs {
		for _, v := range workload.Variants() {
			t := times[cfg][v.Name]
			r.AddRow(cfg, v.Name,
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
	return r, nil
}

// fig9Model reproduces Fig. 9: the composition model swept over the
// Non-GEMM fraction, with DevMem-vs-PCIe crossovers.
func fig9Model(sp *Space, runs []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r := sp.result("w_nongemm", "PCIe-2GB", "PCIe-8GB", "PCIe-64GB", "DevMem")
	m := analytic.Composition{}
	times, configs := vitTimes(runs, outs)
	units := map[string]analytic.Config{}
	for _, cfg := range configs {
		t := times[cfg][workload.ViTBase.Name]
		units[cfg] = analytic.Config{
			Name:     cfg,
			GEMMNs:   t.GEMM.Nanoseconds(),
			NonGEMMs: t.NonGEMM.Nanoseconds(),
		}
	}

	for i := 0; i <= 10; i++ {
		w := float64(i) / 10
		row := []string{fmt.Sprintf("%.1f", w)}
		for _, cfg := range configs {
			row = append(row, fmt.Sprintf("%.2fms", m.TimeNs(units[cfg], w)/1e6))
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
	return r, nil
}
