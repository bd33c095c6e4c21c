package scenario

// Point-enumeration contract tests: distributed shard plans reference
// points by expansion index and fingerprint, so the enumeration must
// be order-stable (repeated expansions agree position by position) and
// independent of anything but (scenario, full). These pin that for
// every built-in matrix in both modes.

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"path/filepath"
	"testing"
)

func TestPointEnumerationOrderStable(t *testing.T) {
	for _, name := range BuiltinNames() {
		for _, full := range []bool{false, true} {
			sc := MustBuiltin(name)
			a, err := sc.PointsFor(full)
			if err != nil {
				t.Fatalf("%s full=%v: %v", name, full, err)
			}
			// A fresh scenario value, expanded again: same points, same
			// order, same fingerprints.
			b, err := MustBuiltin(name).PointsFor(full)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s full=%v: %d vs %d points across expansions", name, full, len(a), len(b))
			}
			for i := range a {
				if a[i].Key != b[i].Key || a[i].Fingerprint != b[i].Fingerprint {
					t.Fatalf("%s full=%v: point %d differs across expansions: %q vs %q",
						name, full, i, a[i].Key, b[i].Key)
				}
				if a[i].Fingerprint == "" {
					t.Fatalf("%s full=%v: point %d (%s) has no fingerprint", name, full, i, a[i].Key)
				}
			}
		}
	}
}

func TestPointsForMatchesExpandPlusPoints(t *testing.T) {
	// PointsFor is the one-step form of Expand + Points; the two paths
	// must enumerate identically or a plan built through one would
	// misindex a worker running the other.
	sc := MustBuiltin("fig4")
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	want := sc.Points(runs)
	got, err := sc.PointsFor(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d vs %d points", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Fingerprint != want[i].Fingerprint {
			t.Fatalf("point %d differs: %q vs %q", i, got[i].Key, want[i].Key)
		}
	}
}

// builtinFingerprintDigest is the SHA-256 of every built-in point's
// fingerprint, quick then full per scenario in BuiltinNames order, one
// fingerprint per line. A fingerprint is the on-disk cache key, so a
// change here means every warm re-run of an existing cache misses.
// Update it only together with a deliberate key change (a new
// core.Config field, a fingerprint version bump), and say so.
const builtinFingerprintDigest = "6a5a9cce11b34387b4f28257927c63847620a3d063a12780e97bb95276ad1979"

// TestBuiltinFingerprintsStable pins the cache keys of every built-in
// point, so a refactor of expansion, point construction or the
// fingerprint encoder that moves a key fails here rather than as a
// silent cold re-run of an old sweep/v2 cache.
func TestBuiltinFingerprintsStable(t *testing.T) {
	h := sha256.New()
	for _, name := range BuiltinNames() {
		for _, full := range []bool{false, true} {
			points, err := MustBuiltin(name).PointsFor(full)
			if err != nil {
				t.Fatalf("%s full=%v: %v", name, full, err)
			}
			for _, p := range points {
				io.WriteString(h, p.Fingerprint)
				io.WriteString(h, "\n")
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != builtinFingerprintDigest {
		t.Fatalf("built-in fingerprint digest = %s, want %s: cache keys moved", got, builtinFingerprintDigest)
	}
}

// manifestFingerprintDigest is the SHA-256 of every point's
// fingerprint in the repo's testdata/*.json manifests, quick then full
// per file in name order, one fingerprint per line. It covers the
// "farm" and "tenants" parts (a by-value []TenantJob, Cluster slices)
// that no built-in reaches; update it under the same rule as
// builtinFingerprintDigest.
const manifestFingerprintDigest = "9c2827aa12ab96e6cff1cb0c1a11832c59c0cb1998e09b14a9357ad974562432"

// TestManifestFingerprintsStable pins the cache keys of the repo's
// example manifests, as TestBuiltinFingerprintsStable does for the
// built-ins.
func TestManifestFingerprintsStable(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no manifests: %v", err)
	}
	h := sha256.New()
	for _, path := range paths {
		sc, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, full := range []bool{false, true} {
			points, err := sc.PointsFor(full)
			if err != nil {
				t.Fatalf("%s full=%v: %v", path, full, err)
			}
			for _, p := range points {
				io.WriteString(h, p.Fingerprint)
				io.WriteString(h, "\n")
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != manifestFingerprintDigest {
		t.Fatalf("manifest fingerprint digest = %s, want %s: cache keys moved", got, manifestFingerprintDigest)
	}
}
