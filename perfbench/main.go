// Command perfbench is the AcceSys benchmark. One invocation runs one
// workload for a fixed time, checks every simulated result against the
// golden corpus or the committed fixture, and prints one JSON line of
// metrics as the last line of its standard output. README.md explains
// the workloads, the metrics and which layer moves which number.
//
//	bash perfbench/run.sh --workload fig4-cold --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the traced pass instead and prints the per-layer
// metrics; --workload all runs every workload in turn.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_points_per_s", "1/s"},
	{"cold_point_ms_p50", "ms"},
	{"cold_point_ms_p90", "ms"},
	{"warm_points_per_s", "1/s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb_per_point", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload.
// Units prefixed sim_ are simulated time, not host time.
var perLayer = []metricDef{
	{"sim.run_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.run_allocs", "count"},
	{"sim.events", "count"},
	{"core.build_ms", "ms"},
	{"core.build_allocs", "count"},
	{"driver.submit_us", "us"},
	{"sweep.fingerprint_us", "us"},
	{"sweep.cache_get_us", "us"},
	{"sweep.cache_put_us", "us"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweep.flight_shared_ratio", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.rows_ms", "ms"},
	{"vit.sim_ms", "ms"},
	{"vit.build_ms", "ms"},
	{"sim.queue_ns_per_event", "ns"},
	{"pcie.stream_ns_per_tlp", "ns"},
	{"dram.stream_ns_per_req.DDR4-2400", "ns"},
	{"dram.stream_ns_per_req.HBM2-2000", "ns"},
	{"pcie.tlps", "count"},
	{"pcie.bytes", "bytes"},
	{"smmu.translations", "count"},
	{"smmu.utlb_miss_ratio", "ratio"},
	{"smmu.ptws", "count"},
	{"smmu.stall_ns", "sim_ns"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.latency_ns_mean", "sim_ns"},
	{"dma.bursts", "count"},
	{"dma.transfer_ns_mean", "sim_ns"},
	{"cache.llc.hit_rate", "ratio"},
	{"cache.iocache.hit_rate", "ratio"},
	{"interconnect.retries", "count"},
	{"accel.compute_busy_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its untraced and traced runs
// and its GOMAXPROCS. The -jobs 1 workloads run one simulation thread
// with GOMAXPROCS 1, so the garbage collector shares that thread and
// neither its cost nor the heap peak depends on whether another core
// happens to be free; the daemon runs two jobs at once and gets two.
var workloads = map[string]struct {
	untraced, traced func(*run) error
	procs            int
}{
	"fig4-cold":     {fig4Cold, traceFig4, 1},
	"small-sweep":   {smallSweep, traceSmallSweep, 1},
	"serve-overlap": {serveOverlap, traceServe, 2},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation: its settings, its tallies and the
// sample summaries behind each metric.
type run struct {
	root     string // checkout root
	tmp      string // temporary directory under .bench_build, removed at exit
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	clock             *hostClock
	attempted, failed int
	metrics           map[string]metric
	spread            map[string]summary
	fx                fixture
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: fig4-cold, small-sweep, serve-overlap, or all")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	regen := flag.Bool("regen", false, "rewrite perfbench/testdata/expected.json from the current tree")
	flag.Parse()

	r := &run{
		root: *root, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		metrics: map[string]metric{}, spread: map[string]summary{},
	}
	tmpRoot := filepath.Join(r.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	r.tmp = tmp

	switch {
	case *regen:
		err = regenFixture(r)
	case *workload == "all":
		return runAll(r, *seconds, *trace)
	default:
		err = r.runWorkload()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runWorkload runs the selected workload and prints its report.
func (r *run) runWorkload() error {
	wl, ok := workloads[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want fig4-cold, small-sweep, serve-overlap, or all)", r.workload)
	}
	if r.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(min(wl.procs, runtime.NumCPU()))
	fx, err := loadFixture(r.root)
	if err != nil {
		return err
	}
	r.fx = fx
	r.clock = newHostClock()
	defs := endToEnd
	if r.trace {
		defs = perLayer
		err = wl.traced(r)
	} else {
		err = wl.untraced(r)
	}
	if err != nil {
		return err
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s measured %s = %v", r.workload, d.name, m.Value)
		}
		out[d.name] = m
		fmt.Printf("%-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-34s %14.6g (%d failed of %d attempted)\n", "failed_ratio", ratio, r.failed, r.attempted)
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"context": r.context()}); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(report{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	})
}

// context is the host and sampling context printed beside every
// result, so a number is never read without the machine it ran on.
func (r *run) context() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   r.workload,
		"trace":      r.trace,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS,
		"arch":       runtime.GOARCH,
		"commit":     commit,
		"samples":    r.spread,
		"host_clock": r.clock.summary(),
	}
}

// set records a metric.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// setSamples records a metric as a quantile of its samples and keeps
// the samples' summary for the context line.
func (r *run) setSamples(name, unit string, xs []float64, q float64) {
	s := summarize(xs)
	r.spread[name] = s
	r.set(name, unit, quantile(xs, q))
}

// fail counts n failed points and says why on standard error.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// guard runs fn, turning a panic into a failure of n points.
func (r *run) guard(n int, what string, fn func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.fail(n, "%s panicked: %v", what, p)
			ok = false
		}
	}()
	fn()
	return true
}

// summary describes a sample: its size, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N: len(s), Median: quantile(s, 0.5), P25: quantile(s, 0.25), P75: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
}

// quantile interpolates the q-quantile at rank q·(n+1), the exclusive
// method Python's statistics.quantiles uses, clamped to the sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(len(s)) {
		return s[len(s)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB,
// falling back to the Go runtime's total reservation off Linux.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// totalAlloc is runtime.MemStats.TotalAlloc: bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// allocMark is where allocSince starts counting.
type allocMark struct{ total, ref uint64 }

func (r *run) allocMark() allocMark { return allocMark{totalAlloc(), r.clock.alloc} }

// allocSince is the bytes allocated since m, the host clock's samples
// excluded.
func (r *run) allocSince(m allocMark) uint64 {
	return totalAlloc() - m.total - (r.clock.alloc - m.ref)
}

// mallocs is runtime.MemStats.Mallocs: heap objects allocated so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runAll runs every workload in its own process, one after another,
// and ends with one combined report whose metric names are prefixed
// with the workload.
func runAll(r *run, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := report{Correct: true, Metrics: map[string]metric{}}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(exe, "-root", r.root, "-workload", name,
			"-seed", strconv.FormatUint(r.seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &rep) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, m := range rep.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !all.Correct {
		return 1
	}
	return 0
}
