// ViT inference study: run one Vision Transformer encoder layer on
// each of the paper's four system configurations (Section V.C) and
// report the GEMM / Non-GEMM split — the data behind Figs. 7 and 8.
//
//	go run ./examples/vit [-model base|large|huge]
package main

import (
	"flag"
	"fmt"
	"os"

	"accesys/internal/core"
	"accesys/internal/cpu"
	"accesys/internal/driver"
	"accesys/internal/scenario"
	"accesys/internal/sim"
	"accesys/internal/workload"
)

func main() {
	model := flag.String("model", "base", "ViT variant: base, large, or huge")
	flag.Parse()

	var variant workload.ViTVariant
	switch *model {
	case "base":
		variant = workload.ViTBase
	case "large":
		variant = workload.ViTLarge
	case "huge":
		variant = workload.ViTHuge
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	g := workload.ViT(variant)
	fmt.Printf("%s: %d layers, %d ops/layer, %.1f GMACs total\n\n",
		variant.Name, g.Layers, len(g.Items), float64(g.TotalMACs())/1e9)

	configs := []core.Config{core.PCIe2GB(), core.PCIe8GB(), core.PCIe64GB(), core.DevMemCfg()}
	fmt.Printf("%-10s  %12s  %12s  %12s\n", "config", "gemm", "non-gemm", "total")
	var baseline sim.Tick
	for _, cfg := range configs {
		gemm, nonGemm := runLayer(cfg, g)
		total := (gemm + nonGemm) * sim.Tick(g.Layers)
		if baseline == 0 {
			baseline = total
		}
		fmt.Printf("%-10s  %12v  %12v  %12v  (%.2fx)\n",
			cfg.Name, gemm*sim.Tick(g.Layers), nonGemm*sim.Tick(g.Layers), total,
			float64(baseline)/float64(total))
	}
}

// runLayer simulates one encoder layer and returns the timed split.
func runLayer(cfg core.Config, g workload.Graph) (gemm, nonGemm sim.Tick) {
	sys, drv := scenario.BuildSystem(cfg)
	var actBase uint64
	if sys.Cfg.Access == core.DevMem {
		actBase = drv.AllocDev(64 << 20)
	} else {
		actBase = drv.AllocHost(64 << 20)
	}

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
				gemm += sys.Now() - start
				step()
			})
			return
		}
		op := it.CPU
		sys.CPU.Run([]cpu.Op{{
			Name:          op.Name,
			ReadAddr:      actBase,
			ReadBytes:     op.ReadBytes,
			WriteAddr:     actBase + 32<<20,
			WriteBytes:    op.WriteBytes,
			ComputeCycles: op.ComputeCycles,
		}}, func() {
			nonGemm += sys.Now() - start
			step()
		})
	}
	step()
	sys.Run()
	return gemm, nonGemm
}
