package scenario

// The built-in registry: the run matrices of the paper's nine
// evaluation artifacts (Section V), declared as scenario values in
// paper order. Everything the sweep engine needs — systems, workload
// sizes, axes, metrics — is declared here, and any of these matrices
// can equally be expressed as a JSON manifest (internal/scenario/testdata
// holds golden copies). Each entry's figure hook (figures.go) shapes
// its rows and shape-check notes; a manifest copy has no hook and
// renders its declared table.

import "fmt"

// lk is a link axis value: total raw bandwidth over a lane count.
func lk(gbps, lanes float64) Value {
	return map[string]any{"gbps": gbps, "lanes": lanes}
}

// sm is a simplemem axis value: fixed-latency host memory.
func sm(latNs, bwGBps float64) Value {
	return map[string]any{"latency_ns": latNs, "bandwidth_gbps": bwGBps}
}

func vals(vs ...any) []Value { return vs }

// builtins lists the registry in paper order.
var builtins = []struct {
	name string
	new  func() *Scenario
}{
	{"fig2", func() *Scenario {
		return &Scenario{
			Name:     "fig2",
			Title:    "Roofline: GEMM %d, PCIe 8 GB/s, sweep per-tile compute time",
			Base:     "pcie8gb",
			Workload: Workload{Kind: "gemm", N: Size{Quick: 512, Full: 1024}},
			Axes: []Axis{
				{Name: "compute_ns", Values: vals(0, 100, 200, 400, 800, 1500, 3000, 6000, 12000)},
			},
			figure: fig2Roofline,
		}
	}},
	{"fig3", func() *Scenario {
		return &Scenario{
			Name:     "fig3",
			Title:    "PCIe bandwidth sweep, GEMM %d (paper: 2048)",
			Base:     "pcie8gb",
			Workload: Workload{Kind: "gemm", N: Size{Quick: 512, Full: 2048}},
			Axes: []Axis{
				{Name: "lanes", Values: vals(2, 4, 8, 16)},
				{Name: "lane_gbps", Values: vals(2, 4, 8, 16, 32, 64)},
			},
			Table:  Table{Row: "lanes", RowHeader: "lanes", Col: "lane_gbps", Cell: "ms3"},
			figure: fig3BandwidthSweep,
		}
	}},
	{"fig4", func() *Scenario {
		return &Scenario{
			Name:     "fig4",
			Title:    "Packet size sweep, GEMM %d",
			Base:     "pcie8gb",
			Workload: Workload{Kind: "gemm", N: Size{Quick: 512, Full: 2048}},
			Axes: []Axis{
				// Paper lane counts per bandwidth: 4 GB/s = 4 lanes,
				// 8 = 8, 16 and up = 16.
				{Name: "link", Values: vals(lk(4, 4), lk(8, 8), lk(16, 16), lk(32, 16), lk(64, 16))},
				{Name: "packet_bytes", Values: vals(64, 128, 256, 512, 1024, 2048, 4096)},
			},
			Table:  Table{Row: "link", RowHeader: "GB/s", Col: "packet_bytes", Cell: "ms3"},
			figure: fig4PacketSize,
		}
	}},
	{"fig5", func() *Scenario {
		return &Scenario{
			Name:     "fig5",
			Title:    "Memory type and location, GEMM %d (speedup vs DDR4 DevMem)",
			Base:     "pcie8gb",
			Workload: Workload{Kind: "gemm", N: Size{Quick: 512, Full: 1024}},
			Axes: []Axis{
				{Name: "mem", Values: vals("DDR4-2400", "HBM2-2000", "GDDR5-2000", "LPDDR5-6400")},
				{Name: "preset", Values: vals("devmem", "pcie2gb", "pcie64gb")},
			},
			figure: fig5MemoryLocation,
		}
	}},
	{"fig6", func() *Scenario {
		return &Scenario{
			Name:     "fig6",
			Title:    "Host memory bandwidth/latency sweeps, GEMM %d (SimpleMem)",
			Base:     "pcie64gb",
			Workload: Workload{Kind: "gemm", N: Size{Quick: 1024, Full: 2048}},
			// Keep the systolic array fast so memory (not compute) is
			// the studied bottleneck, as in the paper's HBM case study.
			Defaults: []Setting{{Axis: "compute_ns", Value: 100}},
			Axes: []Axis{
				{Name: "simplemem", Values: vals(
					// Bandwidth sweep at 30 ns fixed latency...
					sm(30, 8), sm(30, 16), sm(30, 32), sm(30, 50),
					sm(30, 64), sm(30, 100), sm(30, 128), sm(30, 256),
					// ...then latency sweep at 64 GB/s.
					sm(1, 64), sm(6, 64), sm(12, 64), sm(18, 64),
					sm(24, 64), sm(30, 64), sm(36, 64),
				)},
			},
			// The SimpleMem sweeps pin compute and push the memory
			// serialization rate right onto the RC initiation-interval
			// rate; where two equal-rate bottlenecks couple, the phase
			// model's max() algebra underpredicts queueing, so this
			// scenario carries a wider documented fidelity band.
			Analytic: &AnalyticSpec{Tol: 0.2, Warn: 0.075},
			figure:   fig6MemSweep,
		}
	}},
	{"tab4", func() *Scenario {
		return &Scenario{
			Name:     "tab4",
			Title:    "Address translation statistics (SMMU), DC access method",
			Base:     "pcie8gb",
			Workload: Workload{Kind: "gemm"},
			Axes: []Axis{
				{Name: "size", Values: vals(64, 128, 256, 512, 1024), FullValues: vals(2048)},
				{Name: "smmu_bypass", Values: vals(false, true)},
			},
			Metrics: []string{"pages", "smmu"},
			figure:  tab4Translation,
		}
	}},
	{"fig7", func() *Scenario {
		return &Scenario{
			Name:     "fig7",
			Title:    "Transformer inference across memory/interconnect configurations",
			Workload: Workload{Kind: "vit"},
			Axes:     vitAxes(vals("ViT-Base", "ViT-Large", "ViT-Huge")),
			figure:   fig7Transformer,
		}
	}},
	{"fig8", func() *Scenario {
		return &Scenario{
			Name:     "fig8",
			Title:    "GEMM vs Non-GEMM runtime split (ViT-Base/Large/Huge)",
			Workload: Workload{Kind: "vit"},
			Axes:     vitAxes(vals("ViT-Base", "ViT-Large", "ViT-Huge")),
			figure:   fig8Split,
		}
	}},
	{"fig9", func() *Scenario {
		return &Scenario{
			Name:     "fig9",
			Title:    "Composition model: time vs Non-GEMM fraction (ViT-Base units)",
			Workload: Workload{Kind: "vit"},
			Axes:     vitAxes(vals("ViT-Base")),
			figure:   fig9Model,
		}
	}},
}

// vitAxes is the Section V.C system matrix crossed with the given
// model list.
func vitAxes(models []Value) []Axis {
	return []Axis{
		{Name: "preset", Values: vals("pcie2gb", "pcie8gb", "pcie64gb", "devmem")},
		{Name: "model", Values: models},
	}
}

// shared holds each built-in's one read-only value, in registry order.
var shared = func() []*Scenario {
	out := make([]*Scenario, len(builtins))
	for i, b := range builtins {
		out[i] = b.new().freeze()
	}
	return out
}()

// Builtin returns the named built-in scenario: one value per name,
// shared by every caller and read-only, so its decode and each scale's
// points are built once per process. Clone it to change it.
func Builtin(name string) (*Scenario, bool) {
	for i, b := range builtins {
		if b.name == name {
			return shared[i], true
		}
	}
	return nil, false
}

// MustBuiltin is Builtin for names the caller knows exist.
func MustBuiltin(name string) *Scenario {
	s, ok := Builtin(name)
	if !ok {
		panic(fmt.Sprintf("scenario: no built-in %q", name))
	}
	return s
}

// BuiltinNames lists the registry in paper order.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}
