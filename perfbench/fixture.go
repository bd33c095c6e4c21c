package main

// The expected-outcome fixture and the small-GEMM grid it covers. The
// fixture pins, for every point any workload can run, the outcome the
// sweep engine must produce plus the exact simulated event count and a
// digest of the per-layer statistics. A change that only speeds the
// simulator up must leave all of them identical; a change to the model
// regenerates the fixture (`perfbench -regen`) alongside the golden
// rows.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"

	"accesys/internal/core"
	"accesys/internal/scenario"
	"accesys/internal/stats"
	"accesys/internal/sweep"
)

// fixturePath is the fixture's place relative to the checkout root.
const fixturePath = "perfbench/testdata/expected.json"

// expected is the pinned result of one point.
type expected struct {
	Outcome sweep.Outcome `json:"outcome"`
	Events  uint64        `json:"events"`
	Stats   string        `json:"stats"`
}

// fixture maps point keys (scenario run keys) to their pinned results.
type fixture map[string]expected

func loadFixture(root string) (fixture, error) {
	data, err := os.ReadFile(filepath.Join(root, fixturePath))
	if err != nil {
		return nil, fmt.Errorf("reading the expected-outcome fixture: %w", err)
	}
	var fx fixture
	if err := json.Unmarshal(data, &fx); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", fixturePath, err)
	}
	return fx, nil
}

// checkOutcome counts a failure when out differs from the pinned
// outcome of key.
func (r *run) checkOutcome(key string, out sweep.Outcome) {
	want, ok := r.fx[key]
	if !ok {
		r.fail(1, "point %s is not in the fixture", key)
		return
	}
	if out.Dur != want.Outcome.Dur || !reflect.DeepEqual(nonNil(out.Values), nonNil(want.Outcome.Values)) {
		r.fail(1, "point %s: outcome %+v, fixture %+v", key, out, want.Outcome)
	}
}

// checkCounts counts a failure when a traced point's exact counts
// differ from the pinned ones.
func (r *run) checkCounts(key string, c simCounts) {
	want, ok := r.fx[key]
	if !ok {
		r.fail(1, "point %s is not in the fixture", key)
		return
	}
	if c.events == 0 {
		r.fail(1, "point %s executed no events", key)
	}
	if c.events != want.Events || c.digest() != want.Stats {
		r.fail(1, "point %s: %d events, stats %s; fixture %d events, stats %s",
			key, c.events, c.digest(), want.Events, want.Stats)
	}
}

func nonNil(m map[string]float64) map[string]float64 {
	if m == nil {
		return map[string]float64{}
	}
	return m
}

// gridScenario is the small-sweep design space: small square GEMMs
// crossed with the interconnect and memory axes the paper studies (PCIe
// link, packet size, memory technology, access method). 900 points.
func gridScenario() *scenario.Scenario {
	link := func(gbps, lanes float64) scenario.Value {
		return map[string]any{"gbps": gbps, "lanes": lanes}
	}
	return &scenario.Scenario{
		Name:     "grid",
		Title:    "small-GEMM grid",
		Base:     "pcie8gb",
		Workload: scenario.Workload{Kind: "gemm", N: scenario.Size{Quick: 64, Full: 64}},
		Axes: []scenario.Axis{
			{Name: "size", Values: []scenario.Value{32, 64, 96, 128, 192}},
			{Name: "link", Values: []scenario.Value{link(4, 4), link(8, 8), link(16, 16), link(32, 16), link(64, 16)}},
			{Name: "packet_bytes", Values: []scenario.Value{64, 256, 1024, 4096}},
			{Name: "mem", Values: []scenario.Value{"DDR4-2400", "HBM2-2000", "LPDDR5-6400"}},
			{Name: "access", Values: []scenario.Value{"DC", "DM", "DevMem"}},
		},
		Metrics: []string{"pages", "accel"},
	}
}

// drawGrid picks perSize distinct grid points of every GEMM size (the
// first axis) with the seed and orders them as jobs consecutive,
// seed-shuffled chunks that each hold perSize/jobs points of every size.
// Drawing the same count per size keeps the cost of a draw, and of each
// chunk, nearly independent of the seed while the points change.
func drawGrid(sp *scenario.Space, seed uint64, perSize, jobs int) []int {
	sizes := len(sp.Scenario().Axes[0].Values)
	per := sp.Size() / sizes
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	draws := make([][]int, sizes)
	for s := range draws {
		for _, j := range rng.Perm(per)[:perSize] {
			draws[s] = append(draws[s], s*per+j)
		}
	}
	step := perSize / jobs
	var idx []int
	for j := 0; j < jobs; j++ {
		chunk := len(idx)
		for _, d := range draws {
			idx = append(idx, d[j*step:(j+1)*step]...)
		}
		rng.Shuffle(len(idx)-chunk, func(a, b int) { idx[chunk+a], idx[chunk+b] = idx[chunk+b], idx[chunk+a] })
	}
	return idx
}

// simCounts are the exact results of one simulated point: its executed
// event count and the per-layer statistics read from sys.Stats.
type simCounts struct {
	events uint64
	stats  map[string]float64
}

// digest condenses the statistics into the fixture's comparison key.
func (c simCounts) digest() string {
	keys := make([]string, 0, len(c.stats))
	for k := range c.stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k + "=" + strconv.FormatFloat(c.stats[k], 'g', -1, 64) + "\n")
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

// readStats gathers the simulated per-layer statistics the traced run
// reports from a finished system's registry. Sums and counts are kept
// raw so points can be added up before ratios are taken.
func readStats(sys *core.System) map[string]float64 {
	reg := sys.Stats
	pre := sys.Cfg.Name + "."
	val := func(path string) float64 {
		if s := reg.Lookup(pre + path); s != nil {
			return s.Value()
		}
		return 0
	}
	dist := func(path string) (sum, n float64) {
		if d, ok := reg.Lookup(pre + path).(*stats.Distribution); ok {
			return d.Sum(), float64(d.Count())
		}
		return 0, 0
	}
	m := map[string]float64{
		"pcie.tlps":            val("pcie.rc.tlps_up") + val("pcie.rc.tlps_down"),
		"pcie.bytes":           val("pcie.rc.bytes_up") + val("pcie.rc.bytes_down"),
		"smmu.translations":    val("smmu.translations"),
		"smmu.utlb_lookups":    val("smmu.utlb_lookups"),
		"smmu.utlb_misses":     val("smmu.utlb_misses"),
		"smmu.ptws":            val("smmu.ptws"),
		"smmu.stall_ns":        val("smmu.stall_ns"),
		"llc.hits":             val("llc.hits"),
		"llc.misses":           val("llc.misses"),
		"iocache.hits":         val("iocache.hits"),
		"iocache.misses":       val("iocache.misses"),
		"interconnect.retries": val("membus.retries") + val("devbus.retries"),
	}
	for _, dram := range []string{"hostmem", "devmem"} {
		m["dram.row_hits"] += val(dram + ".row_hits")
		m["dram.row_misses"] += val(dram + ".row_misses")
		sum, n := dist(dram + ".latency_ns")
		m["dram.latency_sum_ns"] += sum
		m["dram.latency_n"] += n
	}
	for i := range sys.Accels {
		acc := fmt.Sprintf("accel%d", i)
		m["accel.compute_ns"] += val(acc + ".compute_ns")
		m["accel.gemm_ns"] += val(acc + ".gemm_ns")
		for _, eng := range []string{"hostdma", "devdma"} {
			m["dma.bursts"] += val(acc + "." + eng + ".bursts")
			sum, n := dist(acc + "." + eng + ".transfer_ns")
			m["dma.transfer_sum_ns"] += sum
			m["dma.transfer_n"] += n
		}
	}
	return m
}

// regenFixture rewrites the fixture from the current tree: every grid
// point, the fig4 matrix and the fig9 matrix. Outcomes come from the
// scenario layer's own sweep points; the exact counts come from the
// benchmark's traced pipeline, whose outcome must agree with them.
func regenFixture(r *run) error {
	fx := fixture{}
	tr := newTracer()
	add := func(sc *scenario.Scenario) error {
		runs, err := sc.Expand(false)
		if err != nil {
			return err
		}
		points := sc.Points(runs)
		for i, run := range runs {
			out := points[i].Run()
			mine, c, err := tr.simulate(sc, run, 0, run.Key)
			if err != nil {
				return err
			}
			if mine.Dur != out.Dur || !reflect.DeepEqual(nonNil(mine.Values), nonNil(out.Values)) {
				return fmt.Errorf("point %s: traced pipeline gives %+v, sweep point %+v", run.Key, mine, out)
			}
			fx[run.Key] = expected{Outcome: out, Events: c.events, Stats: c.digest()}
			tr.spans = tr.spans[:0]
		}
		fmt.Fprintf(os.Stderr, "perfbench: fixture: %s: %d points\n", sc.Name, len(runs))
		return nil
	}
	for _, sc := range []*scenario.Scenario{gridScenario(), scenario.MustBuiltin("fig4"), scenario.MustBuiltin("fig9")} {
		if err := add(sc); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(fx))
	for k := range fx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(fx[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%q: %s%s\n", k, line, sep)
	}
	b.WriteString("}\n")
	path := filepath.Join(r.root, fixturePath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
