package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"accesys/internal/core"
	"accesys/internal/sweep"
)

// TestBuiltinsExpand pins every registered scenario's matrix size in
// both modes — the paper's run counts.
func TestBuiltinsExpand(t *testing.T) {
	want := map[string][2]int{ // quick, full
		"fig2": {9, 9},
		"fig3": {24, 24},
		"fig4": {35, 35},
		"fig5": {12, 12},
		"fig6": {15, 15},
		"tab4": {10, 12},
		"fig7": {12, 12},
		"fig8": {12, 12},
		"fig9": {4, 4},
	}
	if len(want) != len(BuiltinNames()) {
		t.Fatalf("registry has %d scenarios, test expects %d", len(BuiltinNames()), len(want))
	}
	for name, counts := range want {
		sc := MustBuiltin(name)
		for i, full := range []bool{false, true} {
			runs, err := sc.Expand(full)
			if err != nil {
				t.Fatalf("%s (full=%v): %v", name, full, err)
			}
			if len(runs) != counts[i] {
				t.Errorf("%s (full=%v): %d runs, want %d", name, full, len(runs), counts[i])
			}
			// Keys may repeat only for interchangeable runs (fig6
			// deliberately revisits its 30 ns / 64 GB/s point in both
			// sub-sweeps; the cache serves the second visit).
			seen := map[string]Run{}
			for _, r := range runs {
				if prev, ok := seen[r.Key]; ok && !reflect.DeepEqual(prev, r) {
					t.Errorf("%s: key %q names two different runs", name, r.Key)
				}
				seen[r.Key] = r
			}
			for _, p := range sc.Points(runs) {
				if p.Fingerprint == "" {
					t.Errorf("%s: point %s has no fingerprint", name, p.Key)
				}
			}
		}
	}
}

// TestExpandOrder pins the cross-product nesting: the first axis
// varies slowest, and labels join into keys in declaration order.
func TestExpandOrder(t *testing.T) {
	sc := &Scenario{
		Name:     "order",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Axes: []Axis{
			{Name: "lanes", Values: vals(2, 4)},
			{Name: "packet_bytes", Values: vals(128, 256)},
		},
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"order-2-128", "order-2-256", "order-4-128", "order-4-256"}
	for i, w := range wantKeys {
		if runs[i].Key != w {
			t.Fatalf("run %d key = %q, want %q", i, runs[i].Key, w)
		}
		if runs[i].Cfg.Name != w {
			t.Fatalf("run %d config name = %q, want %q", i, runs[i].Cfg.Name, w)
		}
	}
	if runs[3].Cfg.PCIe.Link.Lanes != 4 || runs[3].Cfg.Accel.HostDMA.BurstBytes != 256 {
		t.Fatalf("last run config not fully applied: %+v", runs[3].Cfg.PCIe.Link)
	}
	if got := runs[1].Label("packet_bytes"); got != "256" {
		t.Fatalf("Label(packet_bytes) = %q, want 256", got)
	}
}

// TestFig5PlacementAwareMem pins the phase ordering contract: the
// preset axis (declared second) applies before the mem axis resolves
// which memory side it configures.
func TestFig5PlacementAwareMem(t *testing.T) {
	runs, err := MustBuiltin("fig5").Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	// First triple: DDR4-2400 under devmem, pcie2gb, pcie64gb.
	dev, h2 := runs[0], runs[1]
	if dev.Cfg.Access != core.DevMem {
		t.Fatalf("run 0 should be DevMem, got %v", dev.Cfg.Access)
	}
	if dev.Cfg.DevSpec.Name != "DDR4-2400" {
		t.Fatalf("DevMem run: DevSpec = %s, want DDR4-2400", dev.Cfg.DevSpec.Name)
	}
	if h2.Cfg.HostSpec.Name != "DDR4-2400" {
		t.Fatalf("host run: HostSpec = %s, want DDR4-2400", h2.Cfg.HostSpec.Name)
	}
	if h2.Cfg.DevSpec.Name == "DDR4-2400" {
		t.Fatal("host run should not have its device memory retyped")
	}
}

// TestDefaultsSurvivePresetAxis pins the phase-ordering contract for
// defaults: a field default outlives a preset axis replacing the whole
// config, while a swept axis still overrides a default of its own
// kind.
func TestDefaultsSurvivePresetAxis(t *testing.T) {
	sc := &Scenario{
		Name:     "defs",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Defaults: []Setting{{Axis: "compute_ns", Value: 100}},
		Axes:     []Axis{{Name: "preset", Values: vals("pcie2gb", "pcie8gb")}},
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Cfg.Accel.ComputeOverride == 0 {
			t.Fatalf("%s: compute_ns default lost to the preset axis", r.Key)
		}
	}

	// A swept axis of the same kind wins over the default.
	sc2 := &Scenario{
		Name:     "defs2",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Defaults: []Setting{{Axis: "packet_bytes", Value: 64}},
		Axes:     []Axis{{Name: "packet_bytes", Values: vals(512)}},
	}
	runs2, err := sc2.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	if runs2[0].Cfg.Accel.HostDMA.BurstBytes != 512 {
		t.Fatalf("swept axis should override the default, got %d", runs2[0].Cfg.Accel.HostDMA.BurstBytes)
	}
}

// TestViTRunsShareIdentity pins the cross-figure sharing contract:
// fig7 and fig8 sweep physically identical systems, so their points
// carry equal fingerprints (one cache entry) and keep
// the preset's config name.
func TestViTRunsShareIdentity(t *testing.T) {
	runs7, err := MustBuiltin("fig7").Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	runs8, err := MustBuiltin("fig8").Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	p7, p8 := MustBuiltin("fig7").Points(runs7), MustBuiltin("fig8").Points(runs8)
	for i := range p7 {
		if p7[i].Fingerprint != p8[i].Fingerprint {
			t.Fatalf("point %d: fig7 and fig8 fingerprints differ", i)
		}
	}
	if runs7[0].Key != "PCIe-2GB/ViT-Base" {
		t.Fatalf("vit key = %q, want PCIe-2GB/ViT-Base", runs7[0].Key)
	}
	if runs7[0].Cfg.Name != "PCIe-2GB" {
		t.Fatalf("vit config name = %q, want PCIe-2GB", runs7[0].Cfg.Name)
	}
}

// TestGEMMPointFingerprintsDifferByBackend pins the aliasing rule the
// canonical FingerprintParts helper bakes in: configs whose
// interface-valued backends marshal alike must not share cache
// entries.
func TestGEMMPointFingerprintsDifferByBackend(t *testing.T) {
	a := core.PCIe8GB()
	b := core.PCIe8GB()
	pa := GEMMPoint(a, 64, nil)
	if pb := GEMMPoint(b, 64, nil); pa.Fingerprint != pb.Fingerprint {
		t.Fatal("identical configs should share a fingerprint")
	}
	c := core.PCIe8GB()
	c.Accel.ComputeOverride = 1
	if pc := GEMMPoint(c, 64, nil); pa.Fingerprint == pc.Fingerprint {
		t.Fatal("different configs must not share a fingerprint")
	}
}

// TestPivotRenderEndToEnd sweeps a small two-axis pivot for real and
// checks the rendered table shape — the index math between the
// expansion order and the row/column pivot.
func TestPivotRenderEndToEnd(t *testing.T) {
	sc := &Scenario{
		Name:     "pivot",
		Title:    "pivot demo, GEMM %d",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Axes: []Axis{
			{Name: "link", Values: vals(lk(8, 8), lk(16, 16))},
			{Name: "packet_bytes", Values: vals(128, 256)},
		},
		Table: Table{Row: "link", RowHeader: "GB/s", Col: "packet_bytes", Cell: "ms3"},
	}
	res, err := sc.Run(Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(res.Headers, "|"), "GB/s|128B|256B"; got != want {
		t.Fatalf("headers = %q, want %q", got, want)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "8" || res.Rows[1][0] != "16" {
		t.Fatalf("row labels wrong: %v", res.Rows)
	}
	if res.Title != "pivot demo, GEMM 64" {
		t.Fatalf("title = %q", res.Title)
	}
	for _, row := range res.Rows {
		for _, cell := range row[1:] {
			if !strings.HasSuffix(cell, "ms") {
				t.Fatalf("cell %q is not a ms3 duration", cell)
			}
		}
	}

	// The transposed declaration must pivot to the same table.
	flipped := &Scenario{
		Name:     "pivot",
		Title:    "pivot demo, GEMM %d",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Axes: []Axis{
			{Name: "packet_bytes", Values: vals(128, 256)},
			{Name: "link", Values: vals(lk(8, 8), lk(16, 16))},
		},
		Table: Table{Row: "link", RowHeader: "GB/s", Col: "packet_bytes", Cell: "ms3"},
	}
	res2, err := flipped.Run(Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	res.Fprint(&b1)
	res2.Fprint(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("transposed declaration renders differently:\n%s---\n%s", b1.String(), b2.String())
	}
}

// TestFlatRenderWithMetrics checks the listing renderer: one row per
// point with extracted metrics as sorted columns.
func TestFlatRenderWithMetrics(t *testing.T) {
	sc := &Scenario{
		Name:     "flat",
		Title:    "flat",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Axes:     []Axis{{Name: "smmu_bypass", Values: vals(false, true)}},
		Metrics:  []string{"pages", "accel"},
	}
	res, err := sc.Run(Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Headers[0] != "point" || res.Headers[1] != "exec" {
		t.Fatalf("headers = %v", res.Headers)
	}
	joined := strings.Join(res.Headers, "|")
	for _, m := range []string{"pages", "tiles", "bytes_in", "bytes_out"} {
		if !strings.Contains(joined, m) {
			t.Fatalf("headers missing metric %q: %v", m, res.Headers)
		}
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(res.Rows))
	}
	if res.Rows[0][0] != "flat-mmu" || res.Rows[1][0] != "flat-nommu" {
		t.Fatalf("row keys wrong: %v vs %v", res.Rows[0][0], res.Rows[1][0])
	}
}

// TestOptionsObserverComposition pins the serve daemon's hooks: an
// OnResult observer sees every completed point alongside the verbose
// progress printer, and a shared Flight passes through to the engine.
func TestOptionsObserverComposition(t *testing.T) {
	sc := &Scenario{
		Name:     "observe",
		Title:    "observe",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Axes:     []Axis{{Name: "packet_bytes", Values: vals(128, 256)}},
	}
	var mu sync.Mutex
	var seen []string
	var progress bytes.Buffer
	_, err := sc.Run(Options{
		Jobs:    2,
		Verbose: true,
		Out:     &progress,
		Flight:  &sweep.Flight{},
		OnResult: func(r sweep.Result) {
			mu.Lock()
			seen = append(seen, r.Key)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d results, want 2: %v", len(seen), seen)
	}
	if got := strings.Count(progress.String(), "observe:"); got != 2 {
		t.Fatalf("progress printer wrote %d lines alongside the observer, want 2:\n%s", got, progress.String())
	}
}

// TestValidateErrors exercises the programmatic error paths.
func TestValidateErrors(t *testing.T) {
	gemm64 := Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}}
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown base", Scenario{Name: "x", Base: "warp", Workload: gemm64}, "unknown base"},
		{"unknown kind", Scenario{Name: "x", Workload: Workload{Kind: "fft"}}, "unknown workload kind"},
		{"no size", Scenario{Name: "x", Workload: Workload{Kind: "gemm"}}, "positive n or a size axis"},
		{"unknown axis", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "warp", Values: vals(1)}}}, "unknown axis"},
		{"empty axis", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "lanes", Values: nil}}}, "empty matrix"},
		{"duplicate axis", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "lanes", Values: vals(2)}, {Name: "lanes", Values: vals(4)}}}, "duplicate axis"},
		{"bad value type", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "lanes", Values: vals("wide")}}}, "want a number"},
		{"bad preset value", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "preset", Values: vals("warp")}}}, "unknown preset"},
		{"bad model", Scenario{Name: "x", Workload: Workload{Kind: "vit"},
			Axes: []Axis{{Name: "model", Values: vals("ViT-Giant")}}}, "unknown ViT model"},
		{"bad metric", Scenario{Name: "x", Workload: gemm64, Metrics: []string{"teraflops"}}, "unknown metric"},
		{"bad default", Scenario{Name: "x", Workload: gemm64,
			Defaults: []Setting{{Axis: "warp", Value: 1.0}}}, "unknown axis"},
		{"pivot col not an axis", Scenario{Name: "x", Workload: gemm64,
			Axes:  []Axis{{Name: "lanes", Values: vals(2)}, {Name: "packet_bytes", Values: vals(128)}},
			Table: Table{Row: "lanes", Col: "size"}}, "not a declared axis"},
		{"pivot row equals col", Scenario{Name: "x", Workload: gemm64,
			Axes:  []Axis{{Name: "lanes", Values: vals(2)}, {Name: "packet_bytes", Values: vals(128)}},
			Table: Table{Row: "lanes", Col: "lanes"}}, "different axes"},
		{"pivot needs two axes", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "lanes", Values: vals(2)}, {Name: "packet_bytes", Values: vals(128)},
				{Name: "compute_ns", Values: vals(0)}},
			Table: Table{Row: "lanes", Col: "packet_bytes"}}, "exactly two axes"},
		{"bad cell", Scenario{Name: "x", Workload: gemm64,
			Table: Table{Cell: "furlongs"}}, "unknown cell format"},
		{"bad link object", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "link", Values: vals(map[string]any{"gbps": 8.0})}}}, "missing field"},
		{"unknown link field", Scenario{Name: "x", Workload: gemm64,
			Axes: []Axis{{Name: "link", Values: vals(map[string]any{"gbps": 8.0, "lanes": 8.0, "color": 1.0})}}}, "unknown field"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSizeUnmarshal covers both manifest encodings.
func TestSizeUnmarshal(t *testing.T) {
	var s Size
	if err := s.UnmarshalJSON([]byte("512")); err != nil || s.Quick != 512 || s.Full != 512 {
		t.Fatalf("number form: %+v %v", s, err)
	}
	if err := s.UnmarshalJSON([]byte(`{"quick": 512, "full": 2048}`)); err != nil || s.Quick != 512 || s.Full != 2048 {
		t.Fatalf("object form: %+v %v", s, err)
	}
	if err := s.UnmarshalJSON([]byte(`{"quick": 1, "flul": 2}`)); err == nil {
		t.Fatal("typoed field should fail")
	}
}

// TestMetricsSkipSMMUWhenBypassed pins the extraction contract tab4's
// overhead comparison relies on.
func TestMetricsSkipSMMUWhenBypassed(t *testing.T) {
	sc := &Scenario{
		Name:     "skip",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm", N: Size{Quick: 64, Full: 64}},
		Axes:     []Axis{{Name: "smmu_bypass", Values: vals(false, true)}},
		Metrics:  []string{"pages", "smmu"},
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	outs := Options{Jobs: 1}.Sweep("skip", sc.Points(runs))
	if outs[0].Value("translations") == 0 {
		t.Fatal("translated run should record SMMU stats")
	}
	if _, ok := outs[1].Values["translations"]; ok {
		t.Fatal("bypassed run should not record SMMU stats")
	}
	// A bypassed SMMU maps nothing, but the metric itself is still
	// recorded (as zero) so manifest tables keep a rectangular shape.
	if _, ok := outs[1].Values["pages"]; !ok {
		t.Fatal("bypassed run should still record the pages metric")
	}
}

// TestResultWriteCSV covers the sweep subcommand's CSV emitter.
func TestResultWriteCSV(t *testing.T) {
	r := &Result{Headers: []string{"a", "b"}}
	r.AddRow("1", "with,comma")
	r.Note("notes are dropped")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"with,comma\"\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
