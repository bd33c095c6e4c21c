package scenario

// Determinism is the contract the parallel sweep engine ships on: a
// simulation run is a pure function of its configuration, so jobs=N
// output always equals sequential output and cached outcomes are
// interchangeable with fresh ones. These tests pin that contract.

import (
	"bytes"
	"fmt"
	"testing"

	"accesys/internal/core"
	"accesys/internal/sweep"
)

// miniPoints is a small but heterogeneous run matrix: every preset
// config at GEMM 64, the scale used throughout the fast tests.
func miniPoints() []sweep.Point {
	var points []sweep.Point
	for _, cfg := range []core.Config{core.PCIe2GB(), core.PCIe8GB(), core.PCIe64GB(), core.DevMemCfg()} {
		points = append(points, GEMMPoint(&cfg, 64, nil))
	}
	bypass := core.PCIe8GB()
	bypass.Name = "mini-bypass"
	bypass.SMMU.Bypass = true
	points = append(points, GEMMPoint(&bypass, 64, nil))
	return points
}

// render formats outcomes the way experiments build rows, so the
// comparison covers the exact strings that reach the report.
func render(outs []sweep.Outcome) []byte {
	var buf bytes.Buffer
	for i, o := range outs {
		fmt.Fprintf(&buf, "%d %d %.3f\n", i, o.Dur, o.Dur.Seconds()*1e3)
	}
	return buf.Bytes()
}

func TestSameConfigTwiceIsByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		d, sys, _ := TimeGEMM(core.PCIe8GB(), 64)
		var stats bytes.Buffer
		if err := sys.Stats.Dump(&stats); err != nil {
			t.Fatal(err)
		}
		return []byte(d.String()), stats.Bytes()
	}
	d1, s1 := run()
	d2, s2 := run()
	if !bytes.Equal(d1, d2) {
		t.Fatalf("durations differ across identical runs: %s vs %s", d1, d2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("stats dumps differ across identical runs")
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	seq := Options{Jobs: 1}.Sweep("det-seq", miniPoints())
	par := Options{Jobs: 8}.Sweep("det-par", miniPoints())
	if !bytes.Equal(render(seq), render(par)) {
		t.Fatalf("parallel rows differ from sequential:\n%s---\n%s", render(seq), render(par))
	}
}

func TestCachedSweepMatchesFresh(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh := Options{Jobs: 4, Cache: cache}.Sweep("det-cold", miniPoints())
	if hits, misses, _ := cache.Stats(); hits != 0 || misses != len(miniPoints()) {
		t.Fatalf("cold run: %d hits %d misses", hits, misses)
	}
	warm := Options{Jobs: 4, Cache: cache}.Sweep("det-warm", miniPoints())
	if hits, _, _ := cache.Stats(); hits != len(miniPoints()) {
		t.Fatalf("warm run hit %d of %d points", hits, len(miniPoints()))
	}
	if !bytes.Equal(render(fresh), render(warm)) {
		t.Fatalf("cached rows differ from fresh:\n%s---\n%s", render(fresh), render(warm))
	}
}

func TestViTSimulationDeterministic(t *testing.T) {
	a := SimViT(core.PCIe8GB(), miniViT)
	b := SimViT(core.PCIe8GB(), miniViT)
	if a != b {
		t.Fatalf("identical ViT runs differ: %+v vs %+v", a, b)
	}
}

func TestExperimentDeterministicUnderJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	// Tab4's smallest sizes exercise the stats-extraction path (Values
	// round-tripping) as well as plain durations.
	seqRes := tab4Mini(t, Options{Jobs: 1})
	parRes := tab4Mini(t, Options{Jobs: 8})
	var seqBuf, parBuf bytes.Buffer
	seqRes.Fprint(&seqBuf)
	parRes.Fprint(&parBuf)
	if !bytes.Equal(seqBuf.Bytes(), parBuf.Bytes()) {
		t.Fatalf("tab4 rows differ between jobs=1 and jobs=8:\n%s---\n%s", seqBuf.String(), parBuf.String())
	}
}

// tab4Mini runs the Table IV point pair at n=64 through a
// programmatically built scenario using the same extraction groups the
// real experiment declares.
func tab4Mini(t *testing.T, opt Options) *Result {
	t.Helper()
	sc := &Scenario{
		Name:     "tab4mini",
		Title:    "mini",
		Base:     "pcie8gb",
		Workload: Workload{Kind: "gemm"},
		Axes: []Axis{
			{Name: "size", Values: []Value{64}},
			{Name: "smmu_bypass", Values: []Value{false, true}},
		},
		Metrics: []string{"pages", "smmu"},
	}
	runs, err := sc.Expand(opt.Full)
	if err != nil {
		t.Fatal(err)
	}
	outs := opt.Sweep("tab4mini", sc.Points(runs))
	trans, bypass := outs[0], outs[1]
	r := &Result{ID: "tab4mini", Title: "mini", Headers: []string{"metric", "64"}}
	r.AddRow("pages", fmt.Sprintf("%d", int(trans.Value("pages"))))
	r.AddRow("translations", fmt.Sprintf("%.0f", trans.Value("translations")))
	r.AddRow("overhead", fmt.Sprintf("%.2f%%",
		100*(float64(trans.Dur)-float64(bypass.Dur))/float64(bypass.Dur)))
	return r
}
