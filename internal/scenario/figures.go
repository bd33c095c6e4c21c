package scenario

// The paper's figures: each built-in's row shaping and shape-check
// notes, attached to its registry entry as the scenario's figure hook.
// Run calls the hook in place of Render, handing it the space the
// matrix was expanded from, so a hook reads axis values and strides
// without decoding the scenario again.

import (
	"fmt"

	"accesys/internal/analytic"
	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// figureFunc shapes a built-in's swept outcomes (all passed, in run order)
// into its table and notes.
type figureFunc func(sp *Space, runs []Run, outs []sweep.Outcome, o Options) (*Result, error)

// numbers reads a numeric axis's canonical values.
func (ax *spaceAxis) numbers() []float64 {
	out := make([]float64, len(ax.vals))
	for i, v := range ax.vals {
		out[i], _ = v.(float64)
	}
	return out
}

// fig2Roofline reproduces Fig. 2: fixed 8 GB/s PCIe, sweep the
// systolic array's per-tile computation time, report normalized
// execution time with the memory/compute-bound knee.
func fig2Roofline(sp *Space, _ []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	n := sp.sc.SizeFor(sp.full)
	r := sp.result("compute_ns/tile", "exec_ms", "normalized")

	overrides := sp.axis("compute_ns").numbers()
	var minT sim.Tick = sim.MaxTick
	for _, o := range outs {
		if o.Dur < minT {
			minT = o.Dur
		}
	}
	for i, ov := range overrides {
		label := fmt.Sprintf("%g", ov)
		if ov == 0 {
			label = "model"
		}
		r.AddRow(label,
			fmt.Sprintf("%.3f", outs[i].Dur.Seconds()*1e3),
			fmt.Sprintf("%.3f", float64(outs[i].Dur)/float64(minT)))
	}

	// Shape check: plateau at small compute times, linear growth at
	// large ones; knee where tiles*override crosses the plateau.
	tiles := (n / 16) * (n / 16)
	plateau := outs[1].Dur
	knee := float64(plateau) / float64(tiles) / float64(sim.Nanosecond)
	r.Note("paper: plateau below ~1500 ns/tile, linear above (knee marks memory->compute bound transition)")
	r.Note("measured: transfer-bound plateau %.3f ms; knee at ~%.0f ns/tile; largest/smallest = %.1fx",
		plateau.Seconds()*1e3, knee, float64(outs[len(outs)-1].Dur)/float64(minT))
	model := analytic.Roofline{Tiles: tiles, TransferNs: plateau.Nanoseconds()}
	r.Note("analytic roofline knee: %.0f ns/tile", model.KneeNs())
	return r, nil
}

// fig3BandwidthSweep reproduces Fig. 3: execution time across lane
// counts {2,4,8,16} x per-lane rates {2..64 Gbps}. The whole table is
// the scenario's declared pivot; only the saturation check is code.
func fig3BandwidthSweep(sp *Space, runs []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r, err := sp.render(runs, outs)
	if err != nil {
		return nil, err
	}

	var slowest, fastest sim.Tick
	for _, o := range outs {
		if slowest == 0 || o.Dur > slowest {
			slowest = o.Dur
		}
		if fastest == 0 || o.Dur < fastest {
			fastest = o.Dur
		}
	}
	r.Note("paper: highest bandwidth outperforms lowest by up to 1109.9%%; scaling saturates when compute-bound")
	r.Note("measured: slowest/fastest = %.1fx (%.0f%%)",
		float64(slowest)/float64(fastest), 100*(float64(slowest)/float64(fastest)-1))
	return r, nil
}

// fig4PacketSize reproduces Fig. 4: execution time vs DMA request
// packet size for several link bandwidths. The table is the scenario's
// declared pivot — `accesys sweep` on the fig4 manifest reaches the
// identical renderer, which is what makes its rows byte-identical.
func fig4PacketSize(sp *Space, runs []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r, err := sp.render(runs, outs)
	if err != nil {
		return nil, err
	}

	sizes := sp.axis("packet_bytes").numbers()
	bandwidths := len(sp.axis("link").sets)
	convexOK := true
	for bi := 0; bi < bandwidths; bi++ {
		var t64, t256, t4096 sim.Tick
		for si, sz := range sizes {
			d := outs[bi*len(sizes)+si].Dur
			switch sz {
			case 64:
				t64 = d
			case 256:
				t256 = d
			case 4096:
				t4096 = d
			}
		}
		if !(t256 < t64 && t256 < t4096) {
			convexOK = false
		}
	}
	r.Note("paper: convex curve, optimum ~256 B; 64 B costs +12%%, 4096 B +36%% vs optimum")
	r.Note("measured: convex (both extremes slower than 256 B) across all bandwidths = %v", convexOK)
	return r, nil
}

// fig5MemoryLocation reproduces Fig. 5: normalized speedup of DevMem
// vs host-side memory (2 and 64 GB/s PCIe) across memory technologies,
// normalized to DDR4 device-side.
func fig5MemoryLocation(sp *Space, _ []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r := sp.result("memory", "DevMem", "host PCIe-2GB/s", "host PCIe-64GB/s")

	// Matrix order: memory technology outer, placement
	// (devmem/pcie2gb/pcie64gb) inner.
	var techs []string
	for _, st := range sp.axis("mem").sets {
		techs = append(techs, st.label)
	}
	devT := make(map[string]sim.Tick)
	host2T := make(map[string]sim.Tick)
	host64T := make(map[string]sim.Tick)
	for i, tech := range techs {
		devT[tech] = outs[3*i].Dur
		host2T[tech] = outs[3*i+1].Dur
		host64T[tech] = outs[3*i+2].Dur
	}

	base := float64(devT["DDR4-2400"])
	speedup := func(t sim.Tick) string { return fmt.Sprintf("%.2f", base/float64(t)) }
	for _, tech := range techs {
		r.AddRow(tech, speedup(devT[tech]), speedup(host2T[tech]), speedup(host64T[tech]))
	}

	okAll := true
	for _, tech := range techs {
		if !(devT[tech] <= host2T[tech]) {
			okAll = false
		}
	}
	frac := float64(devT["HBM2-2000"]) / float64(host64T["HBM2-2000"])
	r.Note("paper: DevMem always beats host-side; 64 GB/s PCIe reaches ~78%% of DevMem performance")
	r.Note("measured: DevMem >= host(2GB/s) for all techs = %v; host@64GB/s reaches %.0f%% of DevMem (HBM2)",
		okAll, 100*frac)
	return r, nil
}

// fig6MemSweep reproduces Fig. 6: host memory bandwidth sweep (a) and
// latency sweep (b) using the fixed-latency SimpleMem model behind a
// 64 GB/s link.
func fig6MemSweep(sp *Space, _ []Run, outs []sweep.Outcome, _ Options) (*Result, error) {
	r := sp.result("sweep", "value", "exec_ms", "normalized")

	// The scenario's simplemem axis lists the bandwidth sweep (at a
	// fixed latency) followed by the latency sweep; derive the value
	// lists and the split point from the axis itself so registry.go
	// stays the single source of truth.
	var points []map[string]any
	for _, v := range sp.axis("simplemem").vals {
		points = append(points, v.(map[string]any))
	}
	split := len(points)
	for i, p := range points {
		if p["latency_ns"] != points[0]["latency_ns"] {
			split = i
			break
		}
	}
	bwOuts, latOuts := outs[:split], outs[split:]

	base := bwOuts[len(bwOuts)-1].Dur
	for i, p := range points[:split] {
		r.AddRow("bandwidth", fmt.Sprintf("%gGB/s", p["bandwidth_gbps"]),
			fmt.Sprintf("%.3f", bwOuts[i].Dur.Seconds()*1e3),
			fmt.Sprintf("%.3f", float64(bwOuts[i].Dur)/float64(base)))
	}
	latBase := latOuts[0].Dur
	for i, p := range points[split:] {
		r.AddRow("latency", fmt.Sprintf("%gns", p["latency_ns"]),
			fmt.Sprintf("%.3f", latOuts[i].Dur.Seconds()*1e3),
			fmt.Sprintf("%.3f", float64(latOuts[i].Dur)/float64(latBase)))
	}

	bwGain := 1 - float64(bwOuts[len(bwOuts)-1].Dur)/float64(bwOuts[0].Dur)
	latLoss := float64(latOuts[len(latOuts)-1].Dur)/float64(latOuts[0].Dur) - 1
	r.Note("paper: bandwidth improves performance ~60%% and saturates past ~100 GB/s; latency adds only ~4.9%%")
	r.Note("measured: bandwidth 8->256 GB/s improves %.0f%%; latency 1->36 ns costs %.1f%%",
		100*bwGain, 100*latLoss)
	return r, nil
}

// tab4Translation reproduces Table IV: SMMU statistics across matrix
// sizes. The scenario declares two runs per size — translated (with
// SMMU metrics extracted into the outcome) and the same job with the
// SMMU bypassed — so overhead is measured the honest way, comparing
// end-to-end times.
func tab4Translation(sp *Space, _ []Run, outs []sweep.Outcome, opt Options) (*Result, error) {
	sizes := sp.axis("size").numbers()
	r := sp.result("metric")
	for _, n := range sizes {
		r.Headers = append(r.Headers, fmt.Sprintf("%g", n))
	}

	type row struct {
		pages     int
		trans     float64
		transMean float64
		ptws      float64
		ptwMean   float64
		utlbLook  float64
		utlbMiss  float64
		overhead  float64
	}
	var rows []row
	for i, n := range sizes {
		trans, bypass := outs[2*i], outs[2*i+1]
		rows = append(rows, row{
			pages:     int(trans.Value("pages")),
			trans:     trans.Value("translations"),
			transMean: trans.Value("trans_ns"),
			ptws:      trans.Value("ptws"),
			ptwMean:   trans.Value("ptw_ns"),
			utlbLook:  trans.Value("utlb_lookups"),
			utlbMiss:  trans.Value("utlb_misses"),
			overhead:  100 * (float64(trans.Dur) - float64(bypass.Dur)) / float64(bypass.Dur),
		})
		opt.Logf("tab4: n=%g pages=%d trans=%.0f overhead=%.2f%%\n",
			n, rows[len(rows)-1].pages, rows[len(rows)-1].trans, rows[len(rows)-1].overhead)
	}

	add := func(name string, f func(row) string) {
		cells := []string{name}
		for _, rw := range rows {
			cells = append(cells, f(rw))
		}
		r.AddRow(cells...)
	}
	add("Memory Footprint (Pages)", func(rw row) string { return fmt.Sprintf("%d", rw.pages) })
	add("Translation Times", func(rw row) string { return fmt.Sprintf("%.0f", rw.trans) })
	add("Trans Mean Time (cyc)", func(rw row) string { return fmt.Sprintf("%.2f", rw.transMean) })
	add("PTW Times", func(rw row) string { return fmt.Sprintf("%.0f", rw.ptws) })
	add("PTW Mean Time (cyc)", func(rw row) string { return fmt.Sprintf("%.2f", rw.ptwMean) })
	add("uTLB Lookup times", func(rw row) string { return fmt.Sprintf("%.0f", rw.utlbLook) })
	add("uTLB Misses times", func(rw row) string { return fmt.Sprintf("%.0f", rw.utlbMiss) })
	add("Trans Overhead", func(rw row) string { return fmt.Sprintf("%.2f%%", rw.overhead) })

	r.Note("paper (2048): 12288 pages, 68.4M translations, PTW mean 368 cyc, overhead U-shaped 6%% -> 1%% -> 6.5%%")
	r.Note("measured: footprint = 3 x N^2 x 4 B / 4 KiB pages exactly; translation counts scale with streamed bursts")
	return r, nil
}
