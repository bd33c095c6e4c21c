package scenario

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"

	"accesys/internal/accel"
	"accesys/internal/core"
	"accesys/internal/dma"
	"accesys/internal/dram"
	"accesys/internal/pcie"
	"accesys/internal/sim"
	"accesys/internal/workload"
)

// presets are the named starting systems (Section V.C plus the bare
// Table II defaults).
var presets = map[string]func() core.Config{
	"default":  func() core.Config { return core.Config{Name: "default"} },
	"pcie2gb":  core.PCIe2GB,
	"pcie8gb":  core.PCIe8GB,
	"pcie64gb": core.PCIe64GB,
	"devmem":   core.DevMemCfg,
}

func presetNames() string { return sortedKeys(presets) }

// Application phases: presets replace the whole config so they apply
// first; placement-aware axes (mem) need the final access mode so they
// apply last. Labels still follow declaration order.
const (
	phasePreset = 0
	phaseField  = 1
	phasePlaced = 2
	maxPhase    = phasePlaced
)

// setting is one decoded axis value: its effect on a run, its key
// fragment (label) and its table header. Settings are shared by every
// run of a space, and so is any state apply hands a run (cluster
// slots, simplemem parameters): nothing may mutate it.
type setting struct {
	apply  func(r *Run)
	label  string
	header string
}

// labelled is a setting whose header is its label.
func labelled(label string, apply func(r *Run)) setting {
	return setting{apply: apply, label: label, header: label}
}

// axisDef is one entry of the axis registry: the phase its values apply
// in and the one decoder every consumer reads a value through.
type axisDef struct {
	phase int
	parse func(v Value) (setting, error)
}

// axisRegistry maps axis names to their definitions. To add a new
// swept dimension, add an entry here — manifests and built-in
// scenarios pick it up by name.
var axisRegistry = map[string]axisDef{
	// Replace the whole base system with a named preset.
	"preset": {phasePreset, func(v Value) (setting, error) {
		s, err := str(v)
		if err != nil {
			return setting{}, err
		}
		preset, ok := presets[s]
		if !ok {
			return setting{}, fmt.Errorf("unknown preset %q (want one of %s)", s, presetNames())
		}
		return setting{apply: func(r *Run) { r.Cfg = preset() }, label: s, header: preset().Name}, nil
	}},
	"access": {phaseField, named(accessByName, func(r *Run, a core.AccessMethod) { r.Cfg.Access = a })},
	// PCIe link by total raw bandwidth: {gbps, lanes}.
	"link": {phaseField, func(v Value) (setting, error) {
		m, err := obj(v, []string{"gbps", "lanes"})
		if err == nil {
			err = whole("lanes", m["lanes"])
		}
		if err != nil {
			return setting{}, err
		}
		link := pcie.LinkForGBps(m["gbps"], int(m["lanes"]))
		return labelled(fmt.Sprintf("%g", m["gbps"]), func(r *Run) { r.Cfg.PCIe.Link = link }), nil
	}},
	// Lane count (keeps the per-lane rate) and per-lane rate in Gbps.
	"lanes":     {phaseField, integer("", func(r *Run, n int) { r.Cfg.PCIe.Link.Lanes = n })},
	"lane_gbps": {phaseField, numeric("Gbps", func(r *Run, f float64) { r.Cfg.PCIe.Link.LaneGbps = f })},
	// Host-path and device-path DMA burst (request packet) sizes.
	"packet_bytes":     {phaseField, burst(func(r *Run, n int) { r.Cfg.Accel.HostDMA.BurstBytes = n })},
	"dev_packet_bytes": {phaseField, burst(func(r *Run, n int) { r.Cfg.Accel.DevDMA.BurstBytes = n })},
	// Per-tile compute time override in nanoseconds (0 = model),
	// scaled before the conversion so fractions keep their picoseconds.
	"compute_ns": {phaseField, duration(func(r *Run, f float64) {
		r.Cfg.Accel.ComputeOverride = sim.Tick(f * float64(sim.Nanosecond))
	})},
	"hostmem": {phaseField, named(specByName, func(r *Run, s dram.Spec) { r.Cfg.HostSpec = s })},
	"devmem":  {phaseField, named(specByName, func(r *Run, s dram.Spec) { r.Cfg.DevSpec = s })},
	// The DRAM the accelerator streams from: the device side under
	// DevMem access, the host side otherwise.
	"mem": {phasePlaced, named(specByName, func(r *Run, s dram.Spec) {
		if r.Cfg.Access == core.DevMem {
			r.Cfg.DevSpec = s
		} else {
			r.Cfg.HostSpec = s
		}
	})},
	// Fixed-latency host memory: {latency_ns, bandwidth_gbps}.
	"simplemem": {phaseField, func(v Value) (setting, error) {
		m, err := obj(v, []string{"latency_ns", "bandwidth_gbps"})
		if err != nil {
			return setting{}, err
		}
		// A negative latency would clamp to 0 ns in the conversion, and
		// a negative bandwidth has no meaning.
		for _, f := range []struct{ key, unit string }{{"latency_ns", "ns"}, {"bandwidth_gbps", "GB/s"}} {
			if m[f.key] < 0 {
				return setting{}, fmt.Errorf("field %q: %g %s is negative", f.key, m[f.key], f.unit)
			}
		}
		p := &core.SimpleMemParams{Latency: sim.TicksFromNanoseconds(m["latency_ns"]), BandwidthGBps: m["bandwidth_gbps"]}
		return labelled(fmt.Sprintf("%g-%g", m["latency_ns"], m["bandwidth_gbps"]), func(r *Run) { r.Cfg.HostSimple = p }), nil
	}},
	// Disable address translation (physical addressing).
	"smmu_bypass": {phaseField, func(v Value) (setting, error) {
		b, ok := v.(bool)
		if !ok {
			return setting{}, fmt.Errorf("want a bool, got %T", v)
		}
		label := "mmu"
		if b {
			label = "nommu"
		}
		return labelled(label, func(r *Run) { r.Cfg.SMMU.Bypass = b }), nil
	}},
	// SMMU sizing: any of smmuFields.
	"smmu": {phaseField, func(v Value) (setting, error) {
		keys := make([]string, len(smmuFields))
		for i, f := range smmuFields {
			keys[i] = f.key
		}
		m, err := obj(v, nil, keys...)
		if err != nil {
			return setting{}, err
		}
		parts := []string{}
		for _, f := range smmuFields {
			if val, ok := m[f.key]; ok {
				if err := whole(f.key, val); err != nil {
					return setting{}, err
				}
				parts = append(parts, fmt.Sprintf("%s%g", f.tag, val))
			}
		}
		return labelled(strings.Join(parts, "-"), func(r *Run) {
			for _, f := range smmuFields {
				if val, ok := m[f.key]; ok {
					*f.dst(r) = int(val)
				}
			}
		}), nil
	}},
	// Square GEMM size, overriding the workload's n.
	"size": {phaseField, func(v Value) (setting, error) {
		s, err := integer("", func(r *Run, n int) { r.N = n })(v)
		if err == nil {
			err = accel.CheckDim(int(v.(float64)))
		}
		return s, err
	}},
	"model": {phaseField, named(modelByName, func(r *Run, m workload.ViTVariant) { r.Model = m })},
	// Accelerator cluster size (endpoints sharing the switch).
	"accelerators": {phaseField, count(func(r *Run, n int) { r.Cfg.Accelerators = n })},
	// Heterogeneous composition: [{kind, n}, ...] slots expanding to
	// consecutive endpoints (overrides accelerators).
	"cluster": {phaseField, func(v Value) (setting, error) {
		slots, err := clusterOf(v)
		if err != nil {
			return setting{}, err
		}
		parts := make([]string, len(slots))
		for i, s := range slots {
			parts[i] = fmt.Sprintf("%s%d", s.Kind, s.N)
		}
		return labelled(strings.Join(parts, "-"), func(r *Run) { r.Cfg.Cluster = slots }), nil
	}},
	// PCIe tree shape: "flat" (one switch) or {levels: 2, fanout}
	// (leaf switches below a root).
	"topology": {phaseField, func(v Value) (setting, error) {
		t, err := topologyOf(v)
		if err != nil {
			return setting{}, err
		}
		label := "flat"
		if !t.Flat() {
			label = fmt.Sprintf("t%dx%d", t.Levels, t.Fanout)
		}
		return labelled(label, func(r *Run) { r.Cfg.PCIe.Topology = t }), nil
	}},
}

// smmuFields are the smmu axis's object fields in label order: the
// manifest key, its label tag and the config field it sets.
var smmuFields = []struct {
	key, tag string
	dst      func(r *Run) *int
}{
	{"utlb_entries", "utlb", func(r *Run) *int { return &r.Cfg.SMMU.UTLBEntries }},
	{"tlb_entries", "tlb", func(r *Run) *int { return &r.Cfg.SMMU.TLBEntries }},
	{"tlb_assoc", "assoc", func(r *Run) *int { return &r.Cfg.SMMU.TLBAssoc }},
	{"pwc_entries", "pwc", func(r *Run) *int { return &r.Cfg.SMMU.PWCEntries }},
	{"walkers", "walkers", func(r *Run) *int { return &r.Cfg.SMMU.Walkers }},
}

func axisNames() string { return sortedKeys(axisRegistry) }

func sortedKeys[V any](m map[string]V) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// numeric decodes a number-valued axis: the label is the number (%g),
// the header adds unit.
func numeric(unit string, set func(r *Run, f float64)) func(Value) (setting, error) {
	return func(v Value) (setting, error) {
		f, err := num(v)
		if err != nil {
			return setting{}, err
		}
		label := fmt.Sprintf("%g", f)
		return setting{apply: func(r *Run) { set(r, f) }, label: label, header: label + unit}, nil
	}
}

// integer is numeric for an axis that sets an int field: a fractional
// value is an error, not a truncation that runs one config under two
// keys.
func integer(unit string, set func(r *Run, n int)) func(Value) (setting, error) {
	parse := numeric(unit, func(r *Run, f float64) { set(r, int(f)) })
	return func(v Value) (setting, error) {
		if f, ok := v.(float64); ok && f != math.Trunc(f) {
			return setting{}, fmt.Errorf("want an integer, got %g", f)
		}
		return parse(v)
	}
}

// burst is integer for a DMA burst size. No engine takes a burst past
// its page, and a negative one never finishes a transfer, so both are
// rejected here rather than failing (or hanging) every point that
// carries them; 0 keeps the engine's default.
func burst(set func(r *Run, n int)) func(Value) (setting, error) {
	parse := integer("B", set)
	return func(v Value) (setting, error) {
		f, ok := v.(float64)
		switch {
		case ok && f > dma.DefaultPageBytes:
			return setting{}, fmt.Errorf("burst %g B exceeds the %d-B DMA page size", f, dma.DefaultPageBytes)
		case ok && f < 0:
			return setting{}, fmt.Errorf("burst %g B is negative", f)
		}
		return parse(v)
	}
}

// count is integer for a number of components. Below 1 is rejected
// here: 0 would silently run as the default single component and a
// negative count fails every point at build time.
func count(set func(r *Run, n int)) func(Value) (setting, error) {
	parse := integer("", set)
	return func(v Value) (setting, error) {
		if f, ok := v.(float64); ok && f < 1 {
			return setting{}, fmt.Errorf("%g is below 1", f)
		}
		return parse(v)
	}
}

// duration is numeric for an axis in nanoseconds. A negative value is
// rejected here, since converting it to an unsigned sim.Tick is not a
// check: Go leaves a negative float's conversion implementation-defined.
func duration(set func(r *Run, ns float64)) func(Value) (setting, error) {
	parse := numeric("", set)
	return func(v Value) (setting, error) {
		if f, ok := v.(float64); ok && f < 0 {
			return setting{}, fmt.Errorf("%g ns is negative", f)
		}
		return parse(v)
	}
}

// whole is integer's check for an int field of an object value.
func whole(field string, f float64) error {
	if f != math.Trunc(f) {
		return fmt.Errorf("field %q: want an integer, got %g", field, f)
	}
	return nil
}

// named decodes a string-valued axis through a name lookup; the name
// is both label and header.
func named[T any](lookup func(string) (T, error), set func(r *Run, x T)) func(Value) (setting, error) {
	return func(v Value) (setting, error) {
		s, err := str(v)
		if err != nil {
			return setting{}, err
		}
		x, err := lookup(s)
		if err != nil {
			return setting{}, err
		}
		return labelled(s, func(r *Run) { set(r, x) }), nil
	}
}

// Value accessors: axis values arrive canonicalized (JSON semantics),
// so numbers are float64, objects are map[string]any.

func num(v Value) (float64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("want a number, got %T", v)
	}
	return f, nil
}

func str(v Value) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("want a string, got %T", v)
	}
	return s, nil
}

// obj decodes an object value against a field set; required fields
// must be present, unknown fields are rejected.
func obj(v Value, required []string, optional ...string) (map[string]float64, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("want an object, got %T", v)
	}
	known := map[string]bool{}
	for _, k := range required {
		known[k] = true
	}
	for _, k := range optional {
		known[k] = true
	}
	out := map[string]float64{}
	for k, fv := range m {
		if !known[k] {
			return nil, fmt.Errorf("unknown field %q (want %s)", k, strings.Join(append(required, optional...), " "))
		}
		f, ok := fv.(float64)
		if !ok {
			return nil, fmt.Errorf("field %q: want a number, got %T", k, fv)
		}
		out[k] = f
	}
	for _, k := range required {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("missing field %q", k)
		}
	}
	return out, nil
}

// clusterOf decodes a cluster axis value: a non-empty array of
// {kind, n} slot objects summing to at most maxClusterAccels members.
const maxClusterAccels = 8

func clusterOf(v Value) ([]core.ClusterSlot, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("want an array of {kind, n} slots, got %T", v)
	}
	if len(arr) == 0 {
		return nil, fmt.Errorf("cluster composition needs at least one slot")
	}
	slots := make([]core.ClusterSlot, 0, len(arr))
	total := 0
	for i, e := range arr {
		m, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("slot %d: want an object, got %T", i, e)
		}
		var s core.ClusterSlot
		for k, fv := range m {
			switch k {
			case "kind":
				kind, ok := fv.(string)
				if !ok {
					return nil, fmt.Errorf("slot %d: kind: want a string, got %T", i, fv)
				}
				s.Kind = kind
			case "n":
				f, ok := fv.(float64)
				if !ok {
					return nil, fmt.Errorf("slot %d: n: want a number, got %T", i, fv)
				}
				if err := whole("n", f); err != nil {
					return nil, fmt.Errorf("slot %d: %v", i, err)
				}
				s.N = int(f)
			default:
				return nil, fmt.Errorf("slot %d: unknown field %q (want kind n)", i, k)
			}
		}
		total += s.N
		slots = append(slots, s)
	}
	if err := core.ValidateCluster(slots); err != nil {
		return nil, err
	}
	if total > maxClusterAccels {
		return nil, fmt.Errorf("cluster totals %d accelerators (max %d)", total, maxClusterAccels)
	}
	return slots, nil
}

// topologyOf decodes a topology axis value: the string "flat" or a
// {levels, fanout} object.
func topologyOf(v Value) (pcie.Topology, error) {
	if s, ok := v.(string); ok {
		if s == "flat" {
			return pcie.Topology{}, nil
		}
		return pcie.Topology{}, fmt.Errorf("unknown topology %q (want \"flat\" or {levels, fanout})", s)
	}
	m, err := obj(v, []string{"levels", "fanout"})
	if err == nil {
		err = cmp.Or(whole("levels", m["levels"]), whole("fanout", m["fanout"]))
	}
	if err != nil {
		return pcie.Topology{}, err
	}
	t := pcie.Topology{Levels: int(m["levels"]), Fanout: int(m["fanout"])}
	if err := t.Validate(); err != nil {
		return pcie.Topology{}, err
	}
	return t, nil
}

func accessByName(s string) (core.AccessMethod, error) {
	switch s {
	case "DC":
		return core.DC, nil
	case "DM":
		return core.DM, nil
	case "DevMem":
		return core.DevMem, nil
	}
	return 0, fmt.Errorf("unknown access method %q (want DC, DM, or DevMem)", s)
}

func specByName(s string) (dram.Spec, error) {
	spec, ok := dram.SpecByName(s)
	if !ok {
		return dram.Spec{}, fmt.Errorf("unknown DRAM spec %q", s)
	}
	return spec, nil
}

func modelByName(s string) (workload.ViTVariant, error) {
	for _, m := range workload.Variants() {
		if m.Name == s {
			return m, nil
		}
	}
	return workload.ViTVariant{}, fmt.Errorf("unknown ViT model %q", s)
}
