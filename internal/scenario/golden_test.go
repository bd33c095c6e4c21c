package scenario

// The golden conformance suite: canonical output rows for all nine
// experiments live under testdata/golden/ at the repository root, and
// this runner diffs freshly generated rows against them. Refactors
// that claim byte-identical output (the scenario layer, the sweep
// engine, the renderer) are held to that claim on every test run
// instead of by one-off manual checks. Regenerate the files with
//
//	UPDATE_GOLDEN=1 go test ./internal/scenario -run TestGolden
//
// after a change that intentionally alters rows, and review the diff
// like any other code change.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accesys/internal/sweep"
)

// goldenDir is the repository-root golden corpus.
const goldenDir = "../../testdata/golden"

// renderGolden formats one result the way the golden files store it:
// the exact table the experiment renders, headers, rows and notes.
func renderGolden(res *Result) []byte {
	var buf bytes.Buffer
	res.Fprint(&buf)
	return buf.Bytes()
}

// diffRows returns a human-readable first-difference report between
// got and want, or "" when identical.
func diffRows(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gotLines[i], wantLines[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gotLines), len(wantLines))
}

func TestGoldenRows(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite re-runs every experiment; skipped in -short")
	}
	if raceEnabled {
		t.Skip("golden suite under -race re-simulates for minutes without adding race coverage")
	}
	update := os.Getenv("UPDATE_GOLDEN") != ""
	// One memory cache for the whole suite, as `accesys run -nocache`
	// uses: fig8 and fig9 sweep a subset of fig7's (system, model)
	// points, so once fig7 has run they must be served from it without
	// a single new simulation.
	opt := Options{Cache: sweep.Memory()}
	ranFig7 := false
	for _, id := range BuiltinNames() {
		t.Run(id, func(t *testing.T) {
			_, missesBefore, _ := opt.Cache.Stats()
			res, err := MustBuiltin(id).Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(res)
			_, misses, _ := opt.Cache.Stats()
			switch {
			case id == "fig7":
				ranFig7 = true
			case (id == "fig8" || id == "fig9") && ranFig7 && misses != missesBefore:
				t.Errorf("%s simulated %d points after fig7 ran; want all memory-cache hits", id, misses-missesBefore)
			}
			path := filepath.Join(goldenDir, id+".txt")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test ./internal/scenario -run TestGolden): %v", err)
			}
			if d := diffRows(got, want); d != "" {
				t.Errorf("%s output drifted from golden rows; %s", id, d)
			}
		})
	}
}

// TestGoldenDiffCatchesPerturbation pins the failure mode the suite
// exists for: a single perturbed cell must be reported, so a passing
// suite genuinely certifies byte identity.
func TestGoldenDiffCatchesPerturbation(t *testing.T) {
	want := []byte("== fig4: demo ==\n  64B  128B\n  1.000ms  2.000ms\n")
	got := []byte("== fig4: demo ==\n  64B  128B\n  1.000ms  2.001ms\n")
	if d := diffRows(got, want); d == "" {
		t.Fatal("perturbed row not detected")
	}
	if d := diffRows(want, want); d != "" {
		t.Fatalf("identical rows reported as drift: %s", d)
	}
}
