// ViT inference study: run one Vision Transformer encoder layer on
// each of the paper's four system configurations (Section V.C) through
// scenario.SimViT and report the GEMM / Non-GEMM split, scaled to the
// whole model — the numbers behind Figs. 7 and 8.
//
//	go run ./examples/vit [-model base|large|huge]
package main

import (
	"flag"
	"fmt"
	"os"

	"accesys/internal/core"
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
		t := scenario.SimViT(cfg, variant)
		if baseline == 0 {
			baseline = t.Total()
		}
		fmt.Printf("%-10s  %12v  %12v  %12v  (%.2fx)\n",
			cfg.Name, t.GEMM, t.NonGEMM, t.Total(), float64(baseline)/float64(t.Total()))
	}
}
