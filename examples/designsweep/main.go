// Design-space exploration: sweep PCIe bandwidth x host memory
// technology for a GEMM workload, then recommend the cheapest
// configuration within a target of the best performance — the
// "balanced performance and cost" co-design flow the paper motivates.
//
// The matrix is declared programmatically through the scenario layer
// (the same model `accesys sweep` loads from JSON manifests) and runs
// through scenario.Options.Sweep, the sweep path every experiment
// takes: all 25 design points run concurrently (-jobs bounds the pool)
// and -cache memoises finished points on disk so iterating on the cost
// model or target is instant.
//
//	go run ./examples/designsweep [-n 512] [-target 0.85] [-jobs N] [-cache dir]
package main

import (
	"flag"
	"fmt"
	"os"

	"accesys/internal/scenario"
	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// relCost is a toy bill-of-materials weight per design point: wider
// and faster links and exotic memories cost more.
func relCost(gbps float64, spec string) float64 {
	memCost := map[string]float64{
		"DDR3-1600": 1.0, "DDR4-2400": 1.3, "DDR5-3200": 1.8,
		"GDDR5-2000": 2.5, "HBM2-2000": 5.0, "LPDDR5-6400": 1.6,
	}
	return gbps/4 + memCost[spec]
}

func main() {
	n := flag.Int("n", 512, "square GEMM size")
	target := flag.Float64("target", 0.85, "required fraction of best performance")
	jobs := flag.Int("jobs", 0, "parallel simulation workers (0 = all CPUs)")
	cacheDir := flag.String("cache", "", "result cache directory (empty = no cache)")
	flag.Parse()

	links := []float64{2, 8, 16, 32, 64}
	specs := []string{"DDR3-1600", "DDR4-2400", "DDR5-3200", "GDDR5-2000", "HBM2-2000"}

	// Declare the matrix: link bandwidth (outer) x host memory
	// technology (inner). This could equally be a JSON manifest run
	// with `accesys sweep`; here the cost model needs the raw
	// outcomes, so the sweep runs programmatically.
	linkVals := make([]scenario.Value, len(links))
	for i, gbps := range links {
		linkVals[i] = map[string]any{"gbps": gbps, "lanes": 16.0}
	}
	specVals := make([]scenario.Value, len(specs))
	for i, s := range specs {
		specVals[i] = s
	}
	sc := &scenario.Scenario{
		Name:     "dse",
		Title:    "PCIe bandwidth x host memory, GEMM %d",
		Base:     "pcie8gb",
		Workload: scenario.Workload{Kind: "gemm", N: scenario.Size{Quick: *n, Full: *n}},
		Axes: []scenario.Axis{
			{Name: "link", Values: linkVals},
			{Name: "hostmem", Values: specVals},
		},
	}
	points, err := sc.PointsFor(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "designsweep:", err)
		os.Exit(1)
	}

	// Stream per-point progress with an ETA to stderr so long sweeps
	// don't look hung.
	opt := scenario.Options{Verbose: true, Out: os.Stderr, Jobs: *jobs}
	if *cacheDir != "" {
		cache, err := sweep.OpenSalted(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "designsweep: cache disabled: %v\n", err)
		} else {
			opt.Cache = cache
		}
	}

	fmt.Printf("sweeping %d design points (GEMM %d)...\n\n", len(points), *n)
	outs := opt.Sweep("dse", points)
	if err := sweep.Failed(outs); err != nil {
		fmt.Fprintln(os.Stderr, "designsweep:", err)
		os.Exit(1)
	}

	type point struct {
		gbps float64
		spec string
		time sim.Tick
		cost float64
	}
	var results []point
	var best sim.Tick

	fmt.Printf("%-8s", "GB/s")
	for _, s := range specs {
		fmt.Printf("  %-12s", s)
	}
	fmt.Println()
	for li, gbps := range links {
		fmt.Printf("%-8g", gbps)
		for si, spec := range specs {
			d := outs[li*len(specs)+si].Dur
			results = append(results, point{gbps, spec, d, relCost(gbps, spec)})
			if best == 0 || d < best {
				best = d
			}
			fmt.Printf("  %-12s", d)
		}
		fmt.Println()
	}

	// Recommend: cheapest point achieving target x best performance.
	var pick *point
	for i := range results {
		p := &results[i]
		if float64(best)/float64(p.time) >= *target {
			if pick == nil || p.cost < pick.cost {
				pick = p
			}
		}
	}
	fmt.Printf("\nbest time: %v\n", best)
	if pick == nil {
		fmt.Printf("no design point reaches %.0f%% of best performance (-target above 1 is unsatisfiable)\n",
			*target*100)
		return
	}
	fmt.Printf("recommendation (>= %.0f%% of best, lowest cost): %g GB/s PCIe + %s (%v, cost %.1f)\n",
		*target*100, pick.gbps, pick.spec, pick.time, pick.cost)
}
