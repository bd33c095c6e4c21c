// Packet-size tuning: sweep the accelerator's DMA request size on one
// link and print the convex curve of Fig. 4, highlighting the optimum.
//
//	go run ./examples/packetsize [-gbps 8] [-n 512]
package main

import (
	"flag"
	"fmt"

	"accesys/internal/core"
	"accesys/internal/pcie"
	"accesys/internal/scenario"
	"accesys/internal/sim"
)

func main() {
	gbps := flag.Float64("gbps", 8, "raw link bandwidth in GB/s")
	n := flag.Int("n", 512, "square GEMM size")
	flag.Parse()

	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	var times []sim.Tick
	var bestIdx int

	for i, sz := range sizes {
		cfg := core.PCIe8GB()
		cfg.Name = fmt.Sprintf("pkt-%d", sz)
		cfg.PCIe = pcie.Config{Link: pcie.LinkForGBps(*gbps, 16)}
		cfg.Accel.HostDMA.BurstBytes = sz
		d, _, _ := scenario.TimeGEMM(cfg, *n)
		times = append(times, d)
		if d < times[bestIdx] {
			bestIdx = i
		}
	}

	fmt.Printf("link %g GB/s, GEMM %d — execution time vs request packet size:\n\n", *gbps, *n)
	for i, sz := range sizes {
		bar := ""
		for j := 0; j < int(60*float64(times[i])/float64(times[len(times)-1])); j++ {
			bar += "#"
		}
		marker := "  "
		if i == bestIdx {
			marker = "<-- optimum"
		}
		fmt.Printf("%5dB  %10v  %-60s %s\n", sz, times[i], bar, marker)
	}
	fmt.Printf("\n64B costs +%.0f%%, 4096B costs +%.0f%% versus the optimum (%dB).\n",
		100*(float64(times[0])/float64(times[bestIdx])-1),
		100*(float64(times[len(times)-1])/float64(times[bestIdx])-1),
		sizes[bestIdx])
}
