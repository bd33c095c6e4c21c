package scenario

// The axis registry's observable contract, pinned value by value: the
// key label and table header each representative value renders to, the
// Run field it sets, and the error text a wrong-typed or out-of-set
// value produces. Everything goes through Validate, Space.RunAt and
// Render — the surfaces manifests and figures reach the registry by —
// so the table holds across any rewrite of the registry's internals.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"accesys/internal/sweep"
)

// axisPin is one registry entry's pinned behaviour.
type axisPin struct {
	axis     string
	kind     string    // workload kind (default gemm)
	defaults []Setting // applied before the axis
	// field renders the part of the resolved run the axis sets.
	field   func(Run) string
	samples []axisSample
	// wrongType is a value of the wrong JSON type and its Validate
	// error; outOfSet (optional) is a well-typed value outside the
	// axis's accepted set and its error.
	wrongType, outOfSet       Value
	wrongTypeErr, outOfSetErr string
}

type axisSample struct {
	v                    Value
	label, header, field string
}

var axisPins = []axisPin{
	{
		axis:  "preset",
		field: func(r Run) string { return fmt.Sprintf("%v %+v", r.Cfg.Access, r.Cfg.PCIe.Link) },
		samples: []axisSample{
			{"default", "default", "default", "DC {Lanes:0 LaneGbps:0 PropDelay:0ps}"},
			{"pcie8gb", "pcie8gb", "PCIe-8GB", "DC {Lanes:8 LaneGbps:8 PropDelay:5.000ns}"},
			{"devmem", "devmem", "DevMem", "DevMem {Lanes:8 LaneGbps:8 PropDelay:5.000ns}"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "preset": want a string, got float64`,
		outOfSet: "warp", outOfSetErr: `scenario pin: axis "preset": unknown preset "warp" (want one of default devmem pcie2gb pcie64gb pcie8gb)`,
	},
	{
		axis:  "access",
		field: func(r Run) string { return r.Cfg.Access.String() },
		samples: []axisSample{
			{"DC", "DC", "DC", "DC"},
			{"DM", "DM", "DM", "DM"},
			{"DevMem", "DevMem", "DevMem", "DevMem"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "access": want a string, got float64`,
		outOfSet: "DMA", outOfSetErr: `scenario pin: axis "access": unknown access method "DMA" (want DC, DM, or DevMem)`,
	},
	{
		axis:  "link",
		field: func(r Run) string { return fmt.Sprintf("%+v", r.Cfg.PCIe.Link) },
		samples: []axisSample{
			{map[string]any{"gbps": 8.0, "lanes": 8.0}, "8", "8", "{Lanes:8 LaneGbps:8 PropDelay:5.000ns}"},
			{map[string]any{"gbps": 2.5, "lanes": 4.0}, "2.5", "2.5", "{Lanes:4 LaneGbps:5 PropDelay:5.000ns}"},
		},
		wrongType: "x16", wrongTypeErr: `scenario pin: axis "link": want an object, got string`,
		outOfSet: map[string]any{"gbps": 8.0}, outOfSetErr: `scenario pin: axis "link": missing field "lanes"`,
	},
	{
		axis:  "lanes",
		field: func(r Run) string { return fmt.Sprint(r.Cfg.PCIe.Link.Lanes) },
		samples: []axisSample{
			{4, "4", "4", "4"},
			{16.0, "16", "16", "16"},
		},
		wrongType: "wide", wrongTypeErr: `scenario pin: axis "lanes": want a number, got string`,
	},
	{
		axis:  "lane_gbps",
		field: func(r Run) string { return fmt.Sprint(r.Cfg.PCIe.Link.LaneGbps) },
		samples: []axisSample{
			{2.5, "2.5", "2.5Gbps", "2.5"},
			{8, "8", "8Gbps", "8"},
		},
		wrongType: true, wrongTypeErr: `scenario pin: axis "lane_gbps": want a number, got bool`,
	},
	{
		axis:  "packet_bytes",
		field: func(r Run) string { return fmt.Sprint(r.Cfg.Accel.HostDMA.BurstBytes) },
		samples: []axisSample{
			{64, "64", "64B", "64"},
			{4096.0, "4096", "4096B", "4096"},
		},
		wrongType: "big", wrongTypeErr: `scenario pin: axis "packet_bytes": want a number, got string`,
		outOfSet: 8192.0, outOfSetErr: `scenario pin: axis "packet_bytes": burst 8192 B exceeds the 4096-B DMA page size`,
	},
	{
		axis:  "dev_packet_bytes",
		field: func(r Run) string { return fmt.Sprint(r.Cfg.Accel.DevDMA.BurstBytes) },
		samples: []axisSample{
			{128, "128", "128B", "128"},
		},
		wrongType: "big", wrongTypeErr: `scenario pin: axis "dev_packet_bytes": want a number, got string`,
		outOfSet: -64.0, outOfSetErr: `scenario pin: axis "dev_packet_bytes": burst -64 B is negative`,
	},
	{
		axis:  "compute_ns",
		field: func(r Run) string { return fmt.Sprint(int64(r.Cfg.Accel.ComputeOverride)) },
		samples: []axisSample{
			{0, "0", "0", "0"},
			{12.5, "12.5", "12.5", "12500"},
		},
		wrongType: "fast", wrongTypeErr: `scenario pin: axis "compute_ns": want a number, got string`,
		outOfSet: -5.0, outOfSetErr: `scenario pin: axis "compute_ns": -5 ns is negative`,
	},
	{
		axis:  "hostmem",
		field: func(r Run) string { return r.Cfg.HostSpec.Name + "/" + r.Cfg.DevSpec.Name },
		samples: []axisSample{
			{"HBM2-2000", "HBM2-2000", "HBM2-2000", "HBM2-2000/"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "hostmem": want a string, got float64`,
		outOfSet: "DDR9", outOfSetErr: `scenario pin: axis "hostmem": unknown DRAM spec "DDR9"`,
	},
	{
		axis:  "devmem",
		field: func(r Run) string { return r.Cfg.HostSpec.Name + "/" + r.Cfg.DevSpec.Name },
		samples: []axisSample{
			{"DDR4-2400", "DDR4-2400", "DDR4-2400", "/DDR4-2400"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "devmem": want a string, got float64`,
		outOfSet: "DDR9", outOfSetErr: `scenario pin: axis "devmem": unknown DRAM spec "DDR9"`,
	},
	{
		axis:  "mem",
		field: func(r Run) string { return r.Cfg.HostSpec.Name + "/" + r.Cfg.DevSpec.Name },
		samples: []axisSample{
			{"GDDR6-2000", "GDDR6-2000", "GDDR6-2000", "GDDR6-2000/"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "mem": want a string, got float64`,
		outOfSet: "DDR9", outOfSetErr: `scenario pin: axis "mem": unknown DRAM spec "DDR9"`,
	},
	{
		// Placement-aware: under a DevMem access default the value lands
		// on the device side.
		axis:     "mem",
		defaults: []Setting{{Axis: "access", Value: "DevMem"}},
		field:    func(r Run) string { return r.Cfg.HostSpec.Name + "/" + r.Cfg.DevSpec.Name },
		samples: []axisSample{
			{"GDDR6-2000", "GDDR6-2000", "GDDR6-2000", "/GDDR6-2000"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "mem": want a string, got float64`,
	},
	{
		axis: "simplemem",
		field: func(r Run) string {
			if r.Cfg.HostSimple == nil {
				return "nil"
			}
			return fmt.Sprintf("%+v", *r.Cfg.HostSimple)
		},
		samples: []axisSample{
			{map[string]any{"latency_ns": 30.0, "bandwidth_gbps": 12.5}, "30-12.5", "30-12.5", "{Latency:30.000ns BandwidthGBps:12.5}"},
		},
		wrongType: 30.0, wrongTypeErr: `scenario pin: axis "simplemem": want an object, got float64`,
		outOfSet: map[string]any{"latency_ns": 30.0}, outOfSetErr: `scenario pin: axis "simplemem": missing field "bandwidth_gbps"`,
	},
	{
		axis:  "smmu_bypass",
		field: func(r Run) string { return fmt.Sprint(r.Cfg.SMMU.Bypass) },
		samples: []axisSample{
			{false, "mmu", "mmu", "false"},
			{true, "nommu", "nommu", "true"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "smmu_bypass": want a bool, got float64`,
	},
	{
		axis: "smmu",
		field: func(r Run) string {
			s := r.Cfg.SMMU
			return fmt.Sprint(s.UTLBEntries, s.TLBEntries, s.TLBAssoc, s.PWCEntries, s.Walkers)
		},
		samples: []axisSample{
			{map[string]any{}, "", "", "0 0 0 0 0"},
			{map[string]any{"walkers": 2.0, "utlb_entries": 16.0}, "utlb16-walkers2", "utlb16-walkers2", "16 0 0 0 2"},
			{map[string]any{"utlb_entries": 1, "tlb_entries": 2, "tlb_assoc": 3, "pwc_entries": 4, "walkers": 5},
				"utlb1-tlb2-assoc3-pwc4-walkers5", "utlb1-tlb2-assoc3-pwc4-walkers5", "1 2 3 4 5"},
		},
		wrongType: "big", wrongTypeErr: `scenario pin: axis "smmu": want an object, got string`,
		outOfSet: map[string]any{"ways": 4.0}, outOfSetErr: `scenario pin: axis "smmu": unknown field "ways" (want utlb_entries tlb_entries tlb_assoc pwc_entries walkers)`,
	},
	{
		axis:  "size",
		field: func(r Run) string { return fmt.Sprint(r.N) },
		samples: []axisSample{
			{64, "64", "64", "64"},
			{2048.0, "2048", "2048", "2048"},
		},
		wrongType: "huge", wrongTypeErr: `scenario pin: axis "size": want a number, got string`,
	},
	{
		axis:  "model",
		kind:  "vit",
		field: func(r Run) string { return r.Model.Name },
		samples: []axisSample{
			{"ViT-Base", "ViT-Base", "ViT-Base", "ViT-Base"},
			{"ViT-Huge", "ViT-Huge", "ViT-Huge", "ViT-Huge"},
		},
		wrongType: 1.0, wrongTypeErr: `scenario pin: axis "model": want a string, got float64`,
		outOfSet: "ViT-Giant", outOfSetErr: `scenario pin: axis "model": unknown ViT model "ViT-Giant"`,
	},
	{
		axis:  "accelerators",
		field: func(r Run) string { return fmt.Sprint(r.Cfg.Accelerators) },
		samples: []axisSample{
			{2, "2", "2", "2"},
		},
		wrongType: "many", wrongTypeErr: `scenario pin: axis "accelerators": want a number, got string`,
	},
	{
		axis:  "cluster",
		field: func(r Run) string { return fmt.Sprintf("%+v", r.Cfg.Cluster) },
		samples: []axisSample{
			{[]any{map[string]any{"kind": "gemm", "n": 2.0}, map[string]any{"kind": "cycle", "n": 1.0}},
				"gemm2-cycle1", "gemm2-cycle1", "[{Kind:gemm N:2} {Kind:cycle N:1}]"},
		},
		wrongType: "gemm", wrongTypeErr: `scenario pin: axis "cluster": want an array of {kind, n} slots, got string`,
		outOfSet:    []any{map[string]any{"kind": "tpu", "n": 1.0}},
		outOfSetErr: `scenario pin: axis "cluster": core: cluster slot 0: unknown accelerator kind "tpu" (want one of [cycle gemm hpc lite vit])`,
	},
	{
		axis:  "topology",
		field: func(r Run) string { return fmt.Sprintf("%+v", r.Cfg.PCIe.Topology) },
		samples: []axisSample{
			{"flat", "flat", "flat", "{Levels:0 Fanout:0}"},
			{map[string]any{"levels": 2.0, "fanout": 3.0}, "t2x3", "t2x3", "{Levels:2 Fanout:3}"},
		},
		wrongType: 2.0, wrongTypeErr: `scenario pin: axis "topology": want an object, got float64`,
		outOfSet: "ring", outOfSetErr: `scenario pin: axis "topology": unknown topology "ring" (want "flat" or {levels, fanout})`,
	},
}

// pinScenario declares the axis as a pivot table's columns against a
// one-value row axis, so Render yields its headers and RunAt(i)
// resolves sample i.
func pinScenario(p axisPin, values ...Value) *Scenario {
	kind := p.kind
	if kind == "" {
		kind = "gemm"
	}
	row := Axis{Name: "compute_ns", Values: []Value{0}}
	if p.axis == row.Name {
		row = Axis{Name: "accelerators", Values: []Value{1}}
	}
	return &Scenario{
		Name:     "pin",
		Workload: Workload{Kind: kind, N: Size{Quick: 16, Full: 16}},
		Defaults: p.defaults,
		Axes:     []Axis{row, {Name: p.axis, Values: values}},
		Table:    Table{Row: row.Name, Col: p.axis},
	}
}

func TestAxisRegistryPinned(t *testing.T) {
	covered := map[string]bool{}
	for _, p := range axisPins {
		covered[p.axis] = true
		values := make([]Value, len(p.samples))
		for i, s := range p.samples {
			values[i] = s.v
		}
		sc := pinScenario(p, values...)
		sp, err := sc.Space(false)
		if err != nil {
			t.Fatalf("%s: %v", p.axis, err)
		}
		runs := make([]Run, sp.Size())
		for i := range runs {
			if runs[i], err = sp.RunAt(i); err != nil {
				t.Fatalf("%s: RunAt(%d): %v", p.axis, i, err)
			}
		}
		res, err := sc.Render(false, runs, make([]sweep.Outcome, len(runs)))
		if err != nil {
			t.Fatalf("%s: %v", p.axis, err)
		}
		sets := sp.axis(p.axis).sets
		for i, s := range p.samples {
			r := runs[i]
			if got := r.Label(p.axis); got != s.label {
				t.Errorf("%s %v: label %q, want %q", p.axis, s.v, got, s.label)
			}
			if sets[i].label != s.label {
				t.Errorf("%s %v: space label %q, want %q", p.axis, s.v, sets[i].label, s.label)
			}
			if got := res.Headers[1+i]; got != s.header {
				t.Errorf("%s %v: header %q, want %q", p.axis, s.v, got, s.header)
			}
			if got := p.field(r); got != s.field {
				t.Errorf("%s %v: field %q, want %q", p.axis, s.v, got, s.field)
			}
		}
		for _, bad := range []struct {
			v    Value
			want string
		}{{p.wrongType, p.wrongTypeErr}, {p.outOfSet, p.outOfSetErr}} {
			if bad.want == "" {
				continue
			}
			err := pinScenario(p, bad.v).Validate()
			if err == nil || err.Error() != bad.want {
				t.Errorf("%s %v: error %v, want %q", p.axis, bad.v, err, bad.want)
			}
		}
	}
	var names []string
	for name := range axisRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !covered[name] {
			t.Errorf("axis %q has no pinned values", name)
		}
	}
}

// TestValidateRejectsBurstPastPage pins the burst/page rule: the
// FuzzManifestRun probe whose 8192-B point used to fail inside dma.New
// is now rejected before any point runs, naming the page size, and so
// is such a burst given as a default.
func TestValidateRejectsBurstPastPage(t *testing.T) {
	for _, data := range []string{
		`{"name":"pkt","base":"pcie8gb","workload":{"kind":"gemm","n":64},"axes":[{"axis":"packet_bytes","values":[64,8192]}]}`,
		`{"name":"pkt","base":"pcie8gb","workload":{"kind":"gemm","n":64},"defaults":[{"axis":"dev_packet_bytes","value":8192}],"axes":[{"axis":"lanes","values":[4]}]}`,
	} {
		sc, err := Parse([]byte(data))
		if err == nil {
			err = sc.Validate()
		}
		if err == nil || !strings.Contains(err.Error(), "exceeds the 4096-B DMA page size") {
			t.Errorf("%s: error %v, want the DMA page size named", data, err)
		}
	}
}

// TestValidateRejectsNegativeDurations pins that a negative duration
// or bandwidth fails at decode, naming the axis and field, instead of
// wrapping (compute_ns) or clamping to 0 (simplemem latency_ns) when
// it becomes a sim.Tick.
func TestValidateRejectsNegativeDurations(t *testing.T) {
	for _, c := range []struct{ axis, want string }{
		{`{"axis":"compute_ns","values":[10,-5]}`, `axis "compute_ns": -5 ns is negative`},
		{`{"axis":"simplemem","values":[{"latency_ns":-5,"bandwidth_gbps":12.5}]}`, `axis "simplemem": field "latency_ns": -5 ns is negative`},
		{`{"axis":"simplemem","values":[{"latency_ns":30,"bandwidth_gbps":-1}]}`, `axis "simplemem": field "bandwidth_gbps": -1 GB/s is negative`},
	} {
		data := `{"name":"neg","base":"pcie8gb","workload":{"kind":"gemm","n":64},"axes":[` + c.axis + `]}`
		sc, err := Parse([]byte(data))
		if err == nil {
			err = sc.Validate()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.axis, err, c.want)
		}
	}
}
