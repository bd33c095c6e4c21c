package main

// End-to-end tests of the accesys subcommand dispatch: flag parsing,
// exit codes on bad input, CSV output, and the equivalence audit's
// pass/fail exit semantics. Everything runs in-process through app, so
// the tests assert on the same code paths main executes.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testApp runs the command in-process and returns (exit code, stdout,
// stderr).
func testApp(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	a := &app{stdout: &stdout, stderr: &stderr}
	code := a.main(args)
	return code, stdout.String(), stderr.String()
}

// miniManifest is a two-point GEMM matrix small enough to simulate in
// milliseconds.
const miniManifest = `{
  "name": "mini",
  "title": "mini sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "lanes", "values": [4, 8]}]
}`

func writeManifest(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mini.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListOutputsExperimentIDs(t *testing.T) {
	code, out, _ := testApp(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"fig2", "tab4", "fig9"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestListRejectsArguments(t *testing.T) {
	if code, _, _ := testApp(t, "list", "extra"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunUnknownExperimentFails(t *testing.T) {
	code, _, errOut := testApp(t, "run", "-nocache", "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestRunBadFlagFails(t *testing.T) {
	if code, _, _ := testApp(t, "run", "-definitely-not-a-flag"); code != 2 {
		t.Fatal("bad flag should exit 2")
	}
}

func TestSweepRequiresManifest(t *testing.T) {
	code, _, errOut := testApp(t, "sweep")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Fatalf("no usage on stderr:\n%s", errOut)
	}
}

func TestSweepBadManifestFails(t *testing.T) {
	path := writeManifest(t, `{"name": "bad", "workload": {"kind": "gemm", "n": 64}, "axes": [{"axis": "nope", "values": [1]}]}`)
	code, _, errOut := testApp(t, "sweep", "-nocache", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown axis") {
		t.Fatalf("stderr missing validation error:\n%s", errOut)
	}
}

// TestSweepRejectsUntileableSizes pins that a GEMM size the
// accelerator cannot tile fails validation before any point runs, with
// an error naming the field. The sweep runs in a re-executed process
// (TestMain's ACCESYS_WORKER_MODE=run), so a crash fails the test
// instead of the test binary; a failed point would exit 1 instead.
func TestSweepRejectsUntileableSizes(t *testing.T) {
	for _, tc := range []struct{ field, manifest string }{
		{"workload n", `{"name": "n100", "base": "pcie8gb", "workload": {"kind": "gemm", "n": 100}, "axes": [{"axis": "packet_bytes", "values": [256, 512]}]}`},
		{`axis "size"`, `{"name": "size100", "base": "pcie8gb", "workload": {"kind": "gemm", "n": 64}, "axes": [{"axis": "size", "values": [64, 100]}]}`},
	} {
		cmd := exec.Command(os.Args[0], "sweep", "-nocache", "-jobs", "2", writeManifest(t, tc.manifest))
		cmd.Env = append(os.Environ(), "ACCESYS_WORKER_MODE=run")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err == nil {
			t.Fatalf("%s: sweep succeeded", tc.field)
		}
		errOut := stderr.String()
		if !strings.Contains(errOut, tc.field+": dimension 100 must be a positive multiple of 16") {
			t.Errorf("%s: stderr does not name the field:\n%s", tc.field, errOut)
		}
		if strings.Contains(errOut, "panic") || strings.Contains(errOut, "goroutine") {
			t.Errorf("%s: sweep panicked:\n%s", tc.field, errOut)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: rows written before validation failed:\n%s", tc.field, stdout.String())
		}
	}
}

// TestSweepLinkAxesOverDefaultBase pins that a lanes or lane_gbps axis
// over the bare Table II base sweeps: the base fills each half of the
// link on its own, so neither axis is reset or left without a rate.
// Like TestSweepRejectsUntileableSizes it re-executes the CLI, so a
// crash fails the test instead of the test binary.
func TestSweepLinkAxesOverDefaultBase(t *testing.T) {
	for _, axis := range []string{"lanes", "lane_gbps"} {
		manifest := `{"name":"n","workload":{"kind":"gemm","n":64},"axes":[{"axis":"` + axis + `","values":[4,8]}]}`
		csvPath := filepath.Join(t.TempDir(), "rows.csv")
		cmd := exec.Command(os.Args[0], "sweep", "-nocache", "-jobs", "2", "-csv", csvPath, writeManifest(t, manifest))
		cmd.Env = append(os.Environ(), "ACCESYS_WORKER_MODE=run")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s: sweep failed (%v):\n%s", axis, err, stderr.String())
			continue
		}
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 3 { // header + two points
			t.Fatalf("%s: CSV rows = %d, want 3:\n%s", axis, len(lines), data)
		}
		_, a, _ := strings.Cut(lines[1], ",")
		_, b, _ := strings.Cut(lines[2], ",")
		if a == b {
			t.Errorf("%s: both points simulated alike (%s), the axis value was lost:\n%s", axis, a, data)
		}
	}
}

// pktManifest sweeps a TLB geometry the SMMU cannot build next to a
// valid one: its 3-way point (512 entries make 170 sets, not a power
// of two) passes validation and fails inside the simulator, its 4-way
// point runs.
const pktManifest = `{
  "name": "pkt",
  "title": "packet sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "smmu", "values": [{"tlb_assoc": 4}, {"tlb_assoc": 3}]}]
}`

// TestSweepFailedPointExitsOne pins the failure contract at the CLI: a
// failed point costs only itself. The sweep exits 1 naming the failed
// key, without a goroutine dump or rows, and caches its 64-B sibling,
// so a re-run serves that point warm and re-tries only the failed one.
func TestSweepFailedPointExitsOne(t *testing.T) {
	path := writeManifest(t, pktManifest)
	cache := t.TempDir()
	for _, want := range []string{"0 hits, 2 misses", "1 hits, 1 misses"} {
		code, out, errOut := testApp(t, "sweep", "-v", "-jobs", "2", "-cache", cache, path)
		if code != exitFail {
			t.Fatalf("exit %d, want %d:\n%s", code, exitFail, errOut)
		}
		if !strings.Contains(errOut, `"pkt-assoc3" panicked`) || strings.Contains(errOut, "goroutine") {
			t.Fatalf("stderr does not name the failed point cleanly:\n%s", errOut)
		}
		if !strings.Contains(errOut, want+", 0 errors") {
			t.Fatalf("cache stats want %q:\n%s", want, errOut)
		}
		if out != "" {
			t.Fatalf("rows written for a failed sweep:\n%s", out)
		}
	}
}

func TestSweepMissingManifestFileFails(t *testing.T) {
	if code, _, _ := testApp(t, "sweep", "-nocache", "no/such/file.json"); code != 2 {
		t.Fatal("missing manifest should exit 2")
	}
}

// TestSweepBadTargetSimulatesNothing pins that every target resolves
// before the first runs: a missing second manifest exits 2 with no
// rows printed and no point simulated or cached.
func TestSweepBadTargetSimulatesNothing(t *testing.T) {
	cache := t.TempDir()
	smoke := filepath.Join("..", "..", "testdata", "smoke.json")
	code, out, errOut := testApp(t, "sweep", "-jobs", "1", "-cache", cache, smoke, "/nonexistent.json")
	if code != usageErr {
		t.Fatalf("exit %d, want %d:\n%s", code, usageErr, errOut)
	}
	if out != "" {
		t.Fatalf("rows printed before the bad target exited:\n%s", out)
	}
	_, stats, _ := testApp(t, "cachestats", "-cache", cache)
	if !strings.Contains(stats, "misses:  0\n") || !strings.Contains(stats, "entries: 0\n") {
		t.Fatalf("a point simulated before the bad target exited:\n%s", stats)
	}
}

// TestSweepCSVErrorFlushesState pins that a failed CSV write, which
// exits 2 after the sweep ran, still persists the sweep's counters.
func TestSweepCSVErrorFlushesState(t *testing.T) {
	cache := t.TempDir()
	manifest := writeManifest(t, miniManifest)
	code, _, errOut := testApp(t, "sweep", "-jobs", "1", "-cache", cache, "-csv", t.TempDir(), manifest)
	if code != usageErr {
		t.Fatalf("exit %d, want %d:\n%s", code, usageErr, errOut)
	}
	_, stats, _ := testApp(t, "cachestats", "-cache", cache)
	if !strings.Contains(stats, "misses:  2\n") || !strings.Contains(stats, "entries: 2\n") {
		t.Fatalf("cachestats lost the sweep's misses:\n%s", stats)
	}
}

func TestSweepRunsManifestAndWritesCSV(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	code, out, errOut := testApp(t, "sweep", "-nocache", "-jobs", "2", "-csv", csvPath, manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "mini sweep") {
		t.Fatalf("table missing title:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + two points
		t.Fatalf("CSV rows = %d, want 3:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "point,exec") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestSweepCSVNeedsSingleManifest(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, _, _ := testApp(t, "sweep", "-nocache", "-csv", "x.csv", manifest, manifest)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestEquivRequiresTargets(t *testing.T) {
	if code, _, _ := testApp(t, "equiv"); code != 2 {
		t.Fatal("equiv without targets should exit 2")
	}
}

func TestEquivRejectsBadTolerances(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	if code, _, _ := testApp(t, "equiv", "-nocache", "-tol", "0.1", "-warn", "0.5", manifest); code != 2 {
		t.Fatal("warn > tol should exit 2")
	}
}

func TestEquivUnknownTargetFails(t *testing.T) {
	code, _, errOut := testApp(t, "equiv", "-nocache", "not-a-figure")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "neither a built-in experiment nor a loadable manifest") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestEquivPassesWithinTolerance(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, out, errOut := testApp(t, "equiv", "-nocache", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "timing vs analytic divergence") {
		t.Fatalf("no divergence table:\n%s", out)
	}
}

func TestEquivFailsOnInjectedDivergence(t *testing.T) {
	// A vanishing tolerance turns ordinary model error into failures —
	// the injected-divergence path of the acceptance criteria.
	manifest := writeManifest(t, miniManifest)
	code, out, _ := testApp(t, "equiv", "-nocache", "-tol", "0.000001", "-warn", "0.0000005", manifest)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "fail") {
		t.Fatalf("no failing rows reported:\n%s", out)
	}
}

func TestEquivJSONReport(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, out, errOut := testApp(t, "equiv", "-nocache", "-json", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	var reports []struct {
		Scenario    string `json:"scenario"`
		Comparisons []struct {
			Metric string `json:"metric"`
			Status string `json:"status"`
		} `json:"comparisons"`
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0].Scenario != "mini" {
		t.Fatalf("unexpected reports: %+v", reports)
	}
	if len(reports[0].Comparisons) != 2 {
		t.Fatalf("comparisons = %d, want 2", len(reports[0].Comparisons))
	}
}

func TestEquivUsesWarmCache(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	cacheDir := t.TempDir()
	if code, _, errOut := testApp(t, "sweep", "-cache", cacheDir, manifest); code != 0 {
		t.Fatalf("seeding sweep failed: %s", errOut)
	}
	code, _, errOut := testApp(t, "equiv", "-cache", cacheDir, "-v", manifest)
	if code != 0 {
		t.Fatalf("equiv exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "2 hits") {
		t.Fatalf("warm cache not used:\n%s", errOut)
	}
}

func TestCachestatsOnFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	code, out, _ := testApp(t, "cachestats", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"entries: 0", "hits:    0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCachestatsGCReports(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	code, out, _ := testApp(t, "cachestats", "-cache", dir, "-gc")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "gc: scanned 0 entries") {
		t.Fatalf("no gc report:\n%s", out)
	}
}

func TestCachestatsRejectsArgs(t *testing.T) {
	if code, _, _ := testApp(t, "cachestats", "stray"); code != 2 {
		t.Fatal("stray arg should exit 2")
	}
}

func TestHelpFlagExitsZero(t *testing.T) {
	// flag.ExitOnError historically exited 0 on -h; the in-process
	// FlagSets must preserve that for scripts probing subcommand usage.
	for _, cmd := range []string{"run", "sweep", "equiv", "cachestats"} {
		code, _, errOut := testApp(t, cmd, "-h")
		if code != 0 {
			t.Fatalf("%s -h exit %d, want 0", cmd, code)
		}
		if !strings.Contains(errOut, "usage: accesys "+cmd) {
			t.Fatalf("%s -h printed no usage:\n%s", cmd, errOut)
		}
	}
}

func TestHelpExitsUsage(t *testing.T) {
	code, _, errOut := testApp(t, "help")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "run|sweep|equiv|explore|shard|fleet|serve|cachestats|list") {
		t.Fatalf("help missing subcommands:\n%s", errOut)
	}
}

// TestSweepWritesProfiles pins the app-layer profiling flags: a sweep
// with -cpuprofile/-memprofile must leave non-empty pprof files.
func TestSweepWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	manifest := writeManifest(t, miniManifest)
	code, _, stderr := testApp(t, "sweep", "-nocache", "-cpuprofile", cpu, "-memprofile", mem, manifest)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunBadProfilePathFails pins the error path: an unwritable
// profile destination is a usage error, not a silent no-op.
func TestRunBadProfilePathFails(t *testing.T) {
	code, _, stderr := testApp(t, "run", "-nocache", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "p.out"), "fig2")
	if code != usageErr {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}
