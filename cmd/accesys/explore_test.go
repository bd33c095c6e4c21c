package main

// End-to-end tests of accesys explore: flag validation, deterministic
// output across identical invocations, trace emission, and the
// acceptance claim that explore's cache entries alias the plain fig4
// sweep's (so the golden corpus stays byte-identical for every point
// the search touched).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// miniExploreManifest is the two-point mini matrix plus an explore
// stanza with a fixed seed and a one-point budget.
const miniExploreManifest = `{
  "name": "mini",
  "title": "mini sweep",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "lanes", "values": [4, 8]}],
  "explore": {
    "objective": {"metric": "exec", "goal": "min"},
    "strategy": "random",
    "seed": 3,
    "budget": "1"
  }
}`

func TestExploreRequiresManifest(t *testing.T) {
	code, _, errOut := testApp(t, "explore")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Fatalf("no usage on stderr:\n%s", errOut)
	}
}

func TestExploreWithoutStanzaFails(t *testing.T) {
	manifest := writeManifest(t, miniManifest)
	code, _, errOut := testApp(t, "explore", "-nocache", "-trace", "", manifest)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "no explore stanza") {
		t.Fatalf("stderr missing diagnosis:\n%s", errOut)
	}
}

func TestExploreBadOverridesFail(t *testing.T) {
	manifest := writeManifest(t, miniExploreManifest)
	for _, args := range [][]string{
		{"explore", "-nocache", "-trace", "", "-strategy", "anneal", manifest},
		{"explore", "-nocache", "-trace", "", "-budget", "lots", manifest},
	} {
		if code, _, _ := testApp(t, args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestExploreDeterministicOutput(t *testing.T) {
	manifest := writeManifest(t, miniExploreManifest)
	dir := t.TempDir()
	var outs [2]string
	var traces [2][]byte
	for i := range outs {
		trace := filepath.Join(dir, "trace", "run", "explore.json")
		code, out, errOut := testApp(t, "explore", "-nocache", "-jobs", "2", "-trace", trace, manifest)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut)
		}
		outs[i] = out
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = data
	}
	if outs[0] != outs[1] {
		t.Fatalf("same (manifest, seed, budget) printed different frontiers:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if string(traces[0]) != string(traces[1]) {
		t.Fatalf("same (manifest, seed, budget) wrote different traces:\n%s\nvs\n%s", traces[0], traces[1])
	}
	var tr struct {
		Strategy string `json:"strategy"`
		Seed     int64  `json:"seed"`
		Summary  struct {
			Promoted int `json:"promoted"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(traces[0], &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != "random" || tr.Seed != 3 || tr.Summary.Promoted != 1 {
		t.Fatalf("trace header/summary off: %+v", tr)
	}
	if !strings.Contains(outs[0], "search frontier") {
		t.Fatalf("frontier table missing:\n%s", outs[0])
	}
}

func TestExploreSeedFlagOverridesManifest(t *testing.T) {
	manifest := writeManifest(t, miniExploreManifest)
	trace := filepath.Join(t.TempDir(), "explore.json")
	code, _, errOut := testApp(t, "explore", "-nocache", "-seed", "99", "-trace", trace, manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Seed int64 `json:"seed"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Seed != 99 {
		t.Fatalf("trace seed %d, want the -seed flag's 99", tr.Seed)
	}
}

func TestExploreCSVOutput(t *testing.T) {
	manifest := writeManifest(t, miniExploreManifest)
	csvPath := filepath.Join(t.TempDir(), "frontier.csv")
	code, _, errOut := testApp(t, "explore", "-nocache", "-trace", "", "-csv", csvPath, manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "point") {
		t.Fatalf("CSV missing header:\n%s", data)
	}
}

func TestExploreFig4CacheAliasesGoldenSweep(t *testing.T) {
	// The acceptance path: a halving search over the fig4-derived
	// objective must find the known optimum while cold-simulating
	// fewer than half of the 35 points, a second search from a fresh
	// cache must reproduce it byte for byte, a warm re-run must
	// simulate nothing, and the cache it leaves behind must serve the
	// plain fig4 sweep rows byte-identical to the committed golden rows
	// for every touched point.
	if testing.Short() {
		t.Skip("simulates fig4 points; skipped in -short")
	}
	if raceEnabled {
		t.Skip("simulates fig4 points under -race for minutes without adding race coverage")
	}
	const manifest = "../../testdata/explore_fig4.json"
	type summary struct {
		SpaceSize int `json:"space_size"`
		Summary   struct {
			Screened   int `json:"screened"`
			ColdTiming int `json:"cold_timing"`
		} `json:"summary"`
	}
	explore := func(cache string) (frontier string, trace []byte, tr summary) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "explore.json")
		code, out, errOut := testApp(t, "explore", "-cache", cache, "-jobs", "4", "-trace", path, manifest)
		if code != 0 {
			t.Fatalf("explore exit %d:\n%s%s", code, out, errOut)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		return out, data, tr
	}
	cache := filepath.Join(t.TempDir(), "cache")
	out, trace, tr := explore(cache)
	// Known optimum: the widest link with the 512B packet sweet spot.
	rank1 := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "1 ") {
			rank1 = line
			break
		}
	}
	if !strings.Contains(rank1, "fig4-64-512") {
		t.Fatalf("frontier rank 1 is not the known optimum:\n%s", out)
	}
	if tr.SpaceSize != 35 || tr.Summary.Screened != 35 {
		t.Fatalf("screen did not cover the space: %+v", tr)
	}
	if tr.Summary.ColdTiming == 0 || tr.Summary.ColdTiming*2 >= tr.SpaceSize {
		t.Fatalf("cold-simulated %d of %d points; the screen is not pruning", tr.Summary.ColdTiming, tr.SpaceSize)
	}

	// Same seed from a fresh cache: byte-identical frontier and trace.
	out2, trace2, _ := explore(filepath.Join(t.TempDir(), "cache2"))
	if out2 != out {
		t.Fatalf("same-seed frontiers differ:\n--- first\n%s\n--- second\n%s", out, out2)
	}
	if string(trace2) != string(trace) {
		t.Fatalf("same-seed traces differ:\n--- first\n%s\n--- second\n%s", trace, trace2)
	}

	// A warm re-run over the first cache promotes no cold point.
	out3, _, tr3 := explore(cache)
	if out3 != out {
		t.Fatalf("warm re-run frontier differs:\n--- cold\n%s\n--- warm\n%s", out, out3)
	}
	if tr3.Summary.ColdTiming != 0 {
		t.Fatalf("warm re-run cold-simulated %d points", tr3.Summary.ColdTiming)
	}

	// The explored points alias the plain sweep's cache entries: a
	// fig4 sweep over the same cache warm-hits every promotion and its
	// rows match the golden corpus byte-for-byte.
	code, rows, errOut := testApp(t, "sweep", "-cache", cache, "-v", "../../testdata/fig4.json")
	if code != 0 {
		t.Fatalf("sweep exit %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "9 hits, 26 misses") {
		t.Fatalf("explore cache entries did not alias the sweep's:\n%s", errOut)
	}
	golden, err := os.ReadFile("../../testdata/golden/fig4.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripNotes(rows), stripNotes(string(golden)); got != want {
		t.Fatalf("explore-warmed sweep rows differ from golden fig4 rows:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestExploreFailedPointFlushesState pins explore's failure contract to
// sweep's: a search whose 3-way TLB point fails exits 1, but first
// flushes what the good 4-way point cost, so the persisted counters hold both
// misses and the wall profile holds the good point's wall (and not the
// failed one's).
func TestExploreFailedPointFlushesState(t *testing.T) {
	manifest := writeManifest(t, `{
  "name": "pkt",
  "base": "pcie8gb",
  "workload": {"kind": "gemm", "n": 64},
  "axes": [{"axis": "smmu", "values": [{"tlb_assoc": 4}, {"tlb_assoc": 3}]}],
  "explore": {"objective": {"metric": "exec", "goal": "min"}, "seed": 1, "budget": "2", "promote": 1}
}`)
	cache := t.TempDir()
	code, out, errOut := testApp(t, "explore", "-jobs", "2", "-cache", cache, "-trace", "", manifest)
	if code != exitFail || !strings.Contains(errOut, `"pkt-assoc3" panicked`) {
		t.Fatalf("exit %d, want %d naming the failed point:\n%s", code, exitFail, errOut)
	}
	if out != "" {
		t.Fatalf("frontier printed for a failed search:\n%s", out)
	}
	_, stats, _ := testApp(t, "cachestats", "-cache", cache)
	if !strings.Contains(stats, "misses:  2\n") || !strings.Contains(stats, "entries: 1\n") {
		t.Fatalf("cachestats does not count the explore's misses:\n%s", stats)
	}
	sc, err := scenario.Load(manifest)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sc.PointsFor(false)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sweep.LoadProfile(cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prof.Wall(points[0].Fingerprint); !ok || prof.Len() != 1 {
		t.Fatalf("profile holds %d walls, want only the 64-B point's", prof.Len())
	}
}
