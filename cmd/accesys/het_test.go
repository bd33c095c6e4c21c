package main

// End-to-end coverage of the heterogeneous manifests: golden rows for
// the mixed-kind farm and the two-tenant contention scenario (quick
// scale), byte-determinism across fresh caches and worker counts, and
// the per-tenant metric surface. Regenerate the golden files with
//
//	UPDATE_GOLDEN=1 go test ./cmd/accesys -run TestHetGoldenRows
//
// and review the diff like any other code change.

import (
	"os"
	"slices"
	"strings"
	"testing"
)

var hetManifests = []string{"hetfarm", "tenants"}

func hetSweep(t *testing.T, args ...string) string {
	t.Helper()
	code, rows, errOut := testApp(t, args...)
	if code != 0 {
		t.Fatalf("sweep %v exit %d:\n%s", args, code, errOut)
	}
	return rows
}

func TestHetGoldenRows(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, name := range hetManifests {
		rows := dropWallTime(hetSweep(t, "sweep", "-nocache", "../../testdata/"+name+".json"))
		path := "../../testdata/golden/" + name + ".txt"
		if update {
			if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test ./cmd/accesys -run TestHetGoldenRows): %v", err)
		}
		if rows != string(golden) {
			t.Fatalf("%s rows drifted from golden:\n--- got\n%s\n--- want\n%s", name, rows, golden)
		}
	}
}

// dropWallTime removes the "# wall time" note, the one line of a
// sweep's output that differs between identical runs, so a refresh
// with no row change leaves the golden files untouched.
func dropWallTime(rows string) string {
	return strings.Join(slices.DeleteFunc(strings.SplitAfter(rows, "\n"), func(line string) bool {
		return strings.HasPrefix(strings.TrimSpace(line), "# wall time:")
	}), "")
}

func TestHetSweepDeterministicAcrossJobs(t *testing.T) {
	// Two fresh-cache runs and -jobs 1 vs -jobs 4 must render
	// byte-identical rows: heterogeneous points are fingerprint-carried
	// and deterministic per config.
	for _, name := range hetManifests {
		manifest := "../../testdata/" + name + ".json"
		one := hetSweep(t, "sweep", "-nocache", "-jobs", "1", manifest)
		again := hetSweep(t, "sweep", "-nocache", "-jobs", "1", manifest)
		four := hetSweep(t, "sweep", "-nocache", "-jobs", "4", manifest)
		if a, b := stripNotes(one), stripNotes(again); a != b {
			t.Fatalf("%s not deterministic across fresh caches:\n--- first\n%s\n--- second\n%s", name, a, b)
		}
		if a, b := stripNotes(one), stripNotes(four); a != b {
			t.Fatalf("%s differs between -jobs 1 and -jobs 4:\n--- jobs1\n%s\n--- jobs4\n%s", name, a, b)
		}
	}
}

func TestTenantSweepReportsPerTenantMetrics(t *testing.T) {
	rows := hetSweep(t, "sweep", "-nocache", "../../testdata/tenants.json")
	for _, col := range []string{"t0_slowdown", "t1_slowdown", "t0_solo_ns", "fairness"} {
		if !strings.Contains(rows, col) {
			t.Fatalf("tenant sweep missing %s column:\n%s", col, rows)
		}
	}
}
