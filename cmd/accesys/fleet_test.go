package main

// End-to-end tests of the `accesys fleet` subcommand. The short tests
// drive in-process fleets over a tiny manifest; the full e2e re-execs
// this test binary as `accesys` for local-subprocess workers (TestMain
// dispatches on ACCESYS_WORKER_MODE) and kills one of them mid-run to
// exercise reassignment against the committed fig4 golden rows.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the accesys CLI: fleet specs
// in these tests declare subprocess workers, and a subprocess worker
// re-execs its own binary — under `go test`, this binary. The modes:
//
//	"" (unset) - run the tests (the normal invocation)
//	run        - behave exactly like accesys
//	die        - behave like accesys but exit 137 after the first
//	             progress line: a worker killed mid-run, after some
//	             cache entries have already landed on disk
func TestMain(m *testing.M) {
	switch os.Getenv("ACCESYS_WORKER_MODE") {
	case "":
		os.Exit(m.Run())
	case "run":
		a := &app{stdout: os.Stdout, stderr: os.Stderr}
		os.Exit(a.main(os.Args[1:]))
	case "die":
		a := &app{stdout: os.Stdout, stderr: &dieAfterFirstProgress{}}
		os.Exit(a.main(os.Args[1:]))
	default:
		fmt.Fprintln(os.Stderr, "unknown ACCESYS_WORKER_MODE")
		os.Exit(2)
	}
}

// dieAfterFirstProgress forwards stderr until the first per-point
// progress line ("... [k/n] key -> dur ...") has been written, then
// kills the process from inside the sweep — a worker dying mid-shard
// with a partially filled cache directory (the completed point's entry
// is persisted before its progress line prints).
type dieAfterFirstProgress struct{}

func (d *dieAfterFirstProgress) Write(p []byte) (int, error) {
	n, err := os.Stderr.Write(p)
	if bytes.Contains(p, []byte("->")) {
		os.Exit(137)
	}
	return n, err
}

func TestFleetUsageErrors(t *testing.T) {
	if code, _, _ := testApp(t, "fleet"); code != 2 {
		t.Fatal("fleet without a manifest should exit 2")
	}
	manifest := writeManifest(t, quadManifest)
	if code, _, _ := testApp(t, "fleet", "-workers", "2", "-fleet", "spec.json", manifest); code != 2 {
		t.Fatal("-workers with -fleet should exit 2")
	}
	if code, _, _ := testApp(t, "fleet", "-fleet", "no/such/spec.json", manifest); code != 2 {
		t.Fatal("missing fleet spec should exit 2")
	}
	spec := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(spec, []byte(`{"workers": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := testApp(t, "fleet", "-fleet", spec, manifest); code != 2 {
		t.Fatal("workerless spec should exit 2")
	}
	if code, _, _ := testApp(t, "fleet", "-workers", "2", "no/such/manifest.json"); code != 2 {
		t.Fatal("missing manifest should exit 2")
	}
}

func TestFleetHelpExitsZero(t *testing.T) {
	code, _, errOut := testApp(t, "fleet", "-h")
	if code != 0 {
		t.Fatalf("fleet -h exit %d, want 0", code)
	}
	if !strings.Contains(errOut, "usage: accesys fleet") {
		t.Fatalf("fleet -h printed no usage:\n%s", errOut)
	}
}

func TestFleetInProcessRoundTrip(t *testing.T) {
	// The acceptance path at quick scale: one `accesys fleet`
	// invocation completes plan -> run -> merge, and the resulting
	// cache serves a subsequent sweep entirely warm with rows identical
	// to a fresh single-process run.
	manifest := writeManifest(t, quadManifest)
	root := t.TempDir()
	out := filepath.Join(root, "merged")
	work := filepath.Join(root, "work")

	code, stdout, errOut := testApp(t, "fleet", "-workers", "2", "-out", out, "-work", work, manifest)
	if code != 0 {
		t.Fatalf("fleet exit %d:\n%s%s", code, stdout, errOut)
	}
	if !strings.Contains(stdout, "fleet quad: 2 shards over 2 workers") {
		t.Fatalf("fleet summary missing:\n%s", stdout)
	}
	if _, err := os.Stat(filepath.Join(work, "plan.json")); err != nil {
		t.Fatalf("fleet left no serialized plan: %v", err)
	}

	code, warm, errOut := testApp(t, "sweep", "-cache", out, "-v", manifest)
	if code != 0 {
		t.Fatalf("warm sweep exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "4 hits, 0 misses") {
		t.Fatalf("fleet cache not fully warm:\n%s", errOut)
	}
	code, cold, errOut := testApp(t, "sweep", "-nocache", manifest)
	if code != 0 {
		t.Fatalf("reference sweep exit %d:\n%s", code, errOut)
	}
	if got, want := stripNotes(warm), stripNotes(cold); got != want {
		t.Fatalf("fleet rows differ from single-process rows:\n--- fleet\n%s\n--- cold\n%s", got, want)
	}

	// A second fleet run sees the profile the first one persisted: the
	// plan is now weighted. The weighted plan may move points between
	// shard directories (so some re-simulate there), but the merge must
	// import nothing new — every outcome is byte-identical to what the
	// first fleet already produced.
	code, stdout2, errOut2 := testApp(t, "fleet", "-workers", "2", "-out", out, "-work", work, manifest)
	if code != 0 {
		t.Fatalf("second fleet exit %d:\n%s", code, errOut2)
	}
	if !strings.Contains(errOut2, "plan weighted by 4 profiled points") {
		t.Fatalf("second run did not weight the plan:\n%s", errOut2)
	}
	if !strings.Contains(stdout2, "0 entries imported") || strings.Contains(stdout2, "reassignments") {
		t.Fatalf("second run imported new entries into a complete cache:\n%s", stdout2)
	}
	_, _, errOut2 = testApp(t, "sweep", "-cache", out, "-v", manifest)
	if !strings.Contains(errOut2, "4 hits, 0 misses") {
		t.Fatalf("cache no longer warm after second fleet run:\n%s", errOut2)
	}
}

func TestFleetSingleWorkerMatchesSweep(t *testing.T) {
	// Degenerate fleet: one worker, one shard — still a correct,
	// mergeable run.
	manifest := writeManifest(t, miniManifest)
	root := t.TempDir()
	out := filepath.Join(root, "merged")
	code, stdout, errOut := testApp(t, "fleet", "-workers", "1", "-out", out, manifest)
	if code != 0 {
		t.Fatalf("fleet exit %d:\n%s%s", code, stdout, errOut)
	}
	_, _, errOut = testApp(t, "sweep", "-cache", out, "-v", manifest)
	if !strings.Contains(errOut, "2 hits, 0 misses") {
		t.Fatalf("single-worker fleet cache not warm:\n%s", errOut)
	}
}

// writeFleetSpec writes a fleet spec of subprocess workers re-execing
// this test binary; mode maps worker names to ACCESYS_WORKER_MODE
// values.
func writeFleetSpec(t *testing.T, modes map[string]string, order []string) string {
	t.Helper()
	var workers []string
	for _, name := range order {
		workers = append(workers, fmt.Sprintf(
			`{"name": %q, "kind": "subprocess", "env": ["ACCESYS_WORKER_MODE=%s"]}`, name, modes[name]))
	}
	spec := fmt.Sprintf(`{"workers": [%s]}`, strings.Join(workers, ", "))
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFleetSubprocessWorkerKilledMidRunMatchesGolden(t *testing.T) {
	// The full acceptance e2e: three local-subprocess workers over
	// fig4, one of which is killed mid-run after its first completed
	// point. The fleet must reassign the dead worker's shard (serving
	// its partial progress warm), and the merged cache must serve
	// `accesys sweep` rows byte-identical to the committed golden rows
	// with zero cold misses.
	if testing.Short() {
		t.Skip("re-simulates all of fig4; skipped in -short")
	}
	if raceEnabled {
		t.Skip("re-simulates all of fig4 under -race for minutes without adding race coverage")
	}
	const manifest = "../../testdata/fig4.json"
	spec := writeFleetSpec(t,
		map[string]string{"w0": "run", "dying": "die", "w2": "run"},
		[]string{"w0", "dying", "w2"})
	root := t.TempDir()
	out := filepath.Join(root, "merged")
	work := filepath.Join(root, "work")

	code, stdout, errOut := testApp(t, "fleet", "-v", "-fleet", spec, "-out", out, "-work", work, manifest)
	if code != 0 {
		t.Fatalf("fleet exit %d:\nstdout:\n%s\nstderr:\n%s", code, stdout, errOut)
	}
	if !strings.Contains(errOut, "failed on dying") || !strings.Contains(errOut, "reassigning") {
		t.Fatalf("dying worker's shard was not reassigned:\n%s", errOut)
	}
	if !strings.Contains(stdout, "reassignments") {
		t.Fatalf("fleet summary does not report reassignments:\n%s", stdout)
	}
	for _, line := range strings.Split(stdout, "\n") {
		if strings.Contains(line, "on dying") {
			t.Fatalf("a shard is credited to the killed worker:\n%s", stdout)
		}
	}

	// Zero cold misses on re-sweep, rows byte-identical to golden.
	code, rows, errOut := testApp(t, "sweep", "-cache", out, "-v", manifest)
	if code != 0 {
		t.Fatalf("warm sweep exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "35 hits, 0 misses") {
		t.Fatalf("merged fig4 cache not fully warm:\n%s", errOut)
	}
	golden, err := os.ReadFile("../../testdata/golden/fig4.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripNotes(rows), stripNotes(string(golden)); got != want {
		t.Fatalf("fleet rows differ from golden fig4 rows:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestFleetFailedPointRunsOnceAndMerges pins a failed point as the
// fleet's value: on pktManifest, with in-process and with subprocess
// workers, every shard runs once, the 64-B point still merges into the
// output cache, and the fleet exits 1 naming the failed point once in
// its own output (a subprocess worker's forwarded stderr names it once
// more, from the worker's single attempt).
func TestFleetFailedPointRunsOnceAndMerges(t *testing.T) {
	manifest := writeManifest(t, pktManifest)
	for name, workers := range map[string][]string{
		"inprocess":  {"-workers", "2"},
		"subprocess": {"-fleet", writeFleetSpec(t, map[string]string{"w0": "run", "w1": "run"}, []string{"w0", "w1"})},
	} {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			code, stdout, errOut := testApp(t, append(append([]string{"fleet"}, workers...), "-out", out, manifest)...)
			if code != exitFail {
				t.Fatalf("fleet exit %d, want %d:\nstdout:\n%s\nstderr:\n%s", code, exitFail, stdout, errOut)
			}
			var own, forwarded int
			for _, line := range strings.Split(errOut, "\n") {
				if !strings.Contains(line, `"pkt-assoc3" panicked`) {
					continue
				}
				if strings.HasPrefix(line, "accesys: ") {
					own++
				} else {
					forwarded++
				}
			}
			wantForwarded := 0
			if name == "subprocess" {
				wantForwarded = 1
			}
			if own != 1 || forwarded != wantForwarded || strings.Contains(errOut, "attempt 2") {
				t.Fatalf("stderr names pkt-assoc3 %d+%d times, want 1+%d, each shard run once:\n%s", own, forwarded, wantForwarded, errOut)
			}
			if !strings.Contains(stdout, "fleet pkt: 2 shards over 2 workers") {
				t.Fatalf("fleet summary missing:\n%s", stdout)
			}
			code, stats, errOut := testApp(t, "cachestats", "-cache", out)
			if code != 0 || !strings.Contains(stats, "entries: 1\n") {
				t.Fatalf("cachestats exit %d, want the 64-B point merged:\n%s%s", code, stats, errOut)
			}
		})
	}
}
