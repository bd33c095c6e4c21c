package scenario

// Native fuzz targets for manifests. FuzzManifestParse: arbitrary
// bytes must never panic Parse, and any manifest it accepts must
// round-trip Parse -> Marshal -> Parse with byte-stable output — the
// property that lets tooling regenerate manifests from loaded
// scenarios. FuzzManifestRun: a manifest Validate accepts must run.
// Both are seeded from every committed manifest (this package's
// testdata plus the repo-root testdata the CLI ships). Run `make fuzz`
// for a short exploration; plain `go test` replays the seed corpora.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"accesys/internal/sweep"
)

// addCommittedManifests seeds f with every committed manifest.
func addCommittedManifests(f *testing.F) {
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "testdata")} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, de := range entries {
			if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err == nil {
				f.Add(data)
			}
		}
	}
}

func FuzzManifestParse(f *testing.F) {
	addCommittedManifests(f)
	f.Add([]byte(`{"name":"t","workload":{"kind":"gemm","n":64},"axes":[{"axis":"lanes","values":[1]}]}`))
	f.Add([]byte(`{"name":"v","workload":{"kind":"vit"},"axes":[{"axis":"model","values":["vit-base"]}]}`))
	// Heterogeneous stanzas: cluster compositions, topology shapes (both
	// spellings), and tenant schedules — including edge shapes the
	// committed manifests don't cover.
	f.Add([]byte(`{"name":"f","workload":{"kind":"farm","n":64},"axes":[{"axis":"cluster","values":[[{"kind":"gemm","n":1}]]}]}`))
	f.Add([]byte(`{"name":"f2","workload":{"kind":"farm","n":64},"axes":[{"axis":"cluster","values":[[{"kind":"cycle","n":8}]]},{"axis":"topology","values":["flat",{"levels":2,"fanout":1}]}]}`))
	f.Add([]byte(`{"name":"f3","workload":{"kind":"farm","n":64},"axes":[{"axis":"topology","values":[{"levels":2,"fanout":9}]}],"defaults":[{"axis":"accelerators","value":3}]}`))
	f.Add([]byte(`{"name":"bad","workload":{"kind":"farm","n":64},"axes":[{"axis":"cluster","values":[[{"kind":"tpu","n":1}],[{"kind":"gemm","n":0}],[{"kind":"gemm","n":99}]]}]}`))
	f.Add([]byte(`{"name":"badtop","workload":{"kind":"gemm","n":64},"axes":[{"axis":"topology","values":[{"levels":3},{"levels":2},{"fanout":2},"ring"]}]}`))
	f.Add([]byte(`{"name":"ten","workload":{"kind":"tenants","tenants":[{"n":64,"jobs":2},{"n":{"quick":32,"full":128}}]},"defaults":[{"axis":"accelerators","value":2}]}`))
	f.Add([]byte(`{"name":"ten1","workload":{"kind":"tenants","tenants":[{"n":64}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // invalid input rejected cleanly is the contract
		}
		m1, err := Marshal(s)
		if err != nil {
			t.Fatalf("accepted manifest fails to marshal: %v", err)
		}
		s2, err := Parse(m1)
		if err != nil {
			t.Fatalf("marshal output does not re-parse: %v\n%s", err, m1)
		}
		m2, err := Marshal(s2)
		if err != nil {
			t.Fatalf("re-parsed manifest fails to marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round trip unstable:\n--- first\n%s\n--- second\n%s", m1, m2)
		}
	})
}

// FuzzManifestRun: accepted means runnable. A manifest goes Parse ->
// Validate -> Expand -> Run on a memory cache, and the outcome must be
// a rejection, a completed run (every point passed checkDone, which
// fails the point otherwise), or an error wrapping sweep.ErrPoint that
// names a failed point's key. Anything else fails, a panic outside a
// point included. To keep each input cheap, inputs with more than 4
// points, a GEMM or tenant size above 64, more than 4 jobs per tenant,
// or a ViT workload are skipped, not failed.
func FuzzManifestRun(f *testing.F) {
	addCommittedManifests(f)
	// The probes: a packet past the DMA page size (a failed point), a
	// per-tile compute time of 1e12 ns (16,000 s simulated), and an
	// accelerator count of 0 and of 64.
	f.Add([]byte(`{"name":"pkt","base":"pcie8gb","workload":{"kind":"gemm","n":64},"axes":[{"axis":"packet_bytes","values":[64,8192]}]}`))
	f.Add([]byte(`{"name":"slow","base":"pcie8gb","workload":{"kind":"gemm","n":64},"axes":[{"axis":"compute_ns","values":[1e12]}]}`))
	f.Add([]byte(`{"name":"acc","base":"pcie8gb","workload":{"kind":"gemm","n":64},"axes":[{"axis":"accelerators","values":[0,64]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || s.Validate() != nil {
			return
		}
		runs, err := s.Expand(false)
		if err != nil {
			return
		}
		if len(runs) > 4 || s.Workload.Kind == "vit" {
			t.Skip("outside the cheap scope")
		}
		for _, r := range runs {
			if r.N > 64 {
				t.Skip("outside the cheap scope")
			}
			for _, tj := range r.Tenants {
				if tj.N > 64 || tj.Jobs > 4 {
					t.Skip("outside the cheap scope")
				}
			}
		}
		_, err = s.Run(Options{Jobs: 1, Cache: sweep.Memory()})
		if err == nil {
			return
		}
		if !errors.Is(err, sweep.ErrPoint) {
			t.Fatalf("expanded manifest failed outside its points: %v", err)
		}
		for _, r := range runs {
			if strings.Contains(err.Error(), strconv.Quote(r.Key)) {
				return
			}
		}
		t.Fatalf("point failure names no point key: %v", err)
	})
}
