package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// golden manifests that must stay equivalent to their built-in
// definitions.
var goldenManifests = []string{"fig4", "fig6", "fig7", "tab4"}

// TestGoldenManifestsMatchBuiltins is the manifest/built-in
// equivalence contract behind the byte-identity acceptance: a loaded
// manifest is the built-in scenario — every field, the analytic band
// included, marshals to the same bytes — and it expands to runs deeply
// equal to the built-in's (JSON-decoded axis values resolve like the
// typed ones) whose points carry the same fingerprints. Identical
// points through the shared renderer mean `accesys sweep
// testdata/fig4.json` emits rows byte-identical to `accesys run fig4`
// without re-simulating here, and `accesys equiv` audits a manifest
// under the same bands as its built-in.
func TestGoldenManifestsMatchBuiltins(t *testing.T) {
	for _, name := range goldenManifests {
		loaded, err := Load(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		builtin := MustBuiltin(name)
		lj, err := Marshal(loaded)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bj, err := Marshal(builtin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(lj, bj) {
			t.Fatalf("%s: manifest differs from built-in:\n--- manifest\n%s\n--- built-in\n%s", name, lj, bj)
		}
		for _, full := range []bool{false, true} {
			lruns, err := loaded.Expand(full)
			if err != nil {
				t.Fatalf("%s (full=%v): %v", name, full, err)
			}
			bruns, err := builtin.Expand(full)
			if err != nil {
				t.Fatalf("%s (full=%v): %v", name, full, err)
			}
			if !reflect.DeepEqual(lruns, bruns) {
				t.Fatalf("%s (full=%v): manifest runs differ from built-in", name, full)
			}
			lp, bp := loaded.Points(lruns), builtin.Points(bruns)
			for i := range lp {
				if lp[i].Fingerprint != bp[i].Fingerprint {
					t.Fatalf("%s point %d (%s): fingerprints differ", name, i, lp[i].Key)
				}
			}
		}
	}
}

// TestRootManifestInSyncWithGolden keeps the CLI-facing copy at
// testdata/fig4.json (repo root) from drifting out of sync with the
// golden one the tests pin.
func TestRootManifestInSyncWithGolden(t *testing.T) {
	root, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, golden) {
		t.Fatal("testdata/fig4.json (repo root) differs from internal/scenario/testdata/fig4.json")
	}
}

// TestRootSmokeManifestLoads keeps the CI smoke manifest valid.
func TestRootSmokeManifestLoads(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "testdata", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("smoke manifest has %d runs, want 4", len(runs))
	}
}

// TestLoadErrors exercises the malformed-manifest paths.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		file, want string
	}{
		{"bad-unknown-axis.json", "unknown axis"},
		{"bad-empty-axis.json", "empty matrix"},
	}
	for _, tc := range cases {
		_, err := Load(filepath.Join("testdata", tc.file))
		if err == nil {
			t.Errorf("%s: no error", tc.file)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.file, err, tc.want)
		}
	}
	if _, err := Load(filepath.Join("testdata", "no-such-file.json")); err == nil {
		t.Error("missing file: no error")
	}
}

// TestParseErrors covers decode-level failures manifest files can't
// cleanly represent.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"syntax", `{"name": `, "manifest"},
		{"unknown field", `{"name": "x", "flavour": "grape"}`, "unknown field"},
		{"trailing data", `{"name": "x", "workload": {"kind": "gemm", "n": 64}} {"again": true}`, "trailing data"},
		{"trailing garbage", `{"name": "x", "workload": {"kind": "gemm", "n": 64}} }`, "trailing data"},
		{"bad size", `{"name": "x", "workload": {"kind": "gemm", "n": "big"}}`, "cannot unmarshal"},
		{"explore proxy", `{"name": "x", "workload": {"kind": "gemm", "n": 64},
			"axes": [{"axis": "packet_bytes", "values": [256, 512]}],
			"explore": {"objective": {"metric": "exec"}, "strategy": "halving", "proxy": {"domains": 2}}}`, `unknown field "proxy"`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.data))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestManifestJSONRoundTrip re-encodes a loaded manifest and loads it
// again: the declarative model survives a marshal cycle, so tooling
// can generate manifests from Go values.
func TestManifestJSONRoundTrip(t *testing.T) {
	loaded, err := Load(filepath.Join("testdata", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	r1, err := loaded.Expand(true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := again.Expand(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("round-tripped manifest expands differently")
	}
}
