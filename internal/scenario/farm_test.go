package scenario

// Farm/tenant workload contracts: the committed heterogeneous
// manifests stay valid, runs are deterministic, per-tenant metrics are
// sane, and heterogeneous fingerprints never alias homogeneous cache
// entries.

import (
	"path/filepath"
	"reflect"
	"testing"

	"accesys/internal/core"
)

func loadHet(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := Load(filepath.Join("..", "..", "testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestHetManifestsLoadAndExpand(t *testing.T) {
	for _, name := range []string{"hetfarm", "tenants"} {
		sc := loadHet(t, name)
		for _, full := range []bool{false, true} {
			runs, err := sc.Expand(full)
			if err != nil {
				t.Fatalf("%s full=%v: %v", name, full, err)
			}
			if len(runs) == 0 {
				t.Fatalf("%s full=%v: empty matrix", name, full)
			}
			for i, p := range sc.Points(runs) {
				if p.Fingerprint == "" || p.Key == "" {
					t.Fatalf("%s point %d lacks identity: %+v", name, i, p)
				}
			}
			// Farm/tenants runs share one SMMU; RunAt must stamp bypass
			// before fingerprinting.
			for i, r := range runs {
				if !r.Cfg.SMMU.Bypass {
					t.Fatalf("%s run %d: SMMU bypass not stamped", name, i)
				}
			}
		}
	}
}

func TestFarmAndTenantRunsDeterministic(t *testing.T) {
	for _, name := range []string{"hetfarm", "tenants"} {
		sc := loadHet(t, name)
		runs, err := sc.Expand(false)
		if err != nil {
			t.Fatal(err)
		}
		// Re-simulating the same point must reproduce every value and
		// the duration exactly.
		p := sc.pointFor(&runs[0])
		a, b := p.Run(), p.Run()
		if a.Dur != b.Dur || !reflect.DeepEqual(a.Values, b.Values) {
			t.Fatalf("%s point not deterministic:\n%+v\n%+v", name, a, b)
		}
	}
}

func TestTenantMetricsSane(t *testing.T) {
	sc := loadHet(t, "tenants")
	runs, err := sc.Expand(false)
	if err != nil {
		t.Fatal(err)
	}
	out := sc.pointFor(&runs[0]).Run()
	for i := range runs[0].Tenants {
		shared := out.Values[tenantKey(i, "exec_ns")]
		solo := out.Values[tenantKey(i, "solo_ns")]
		sd := out.Values[tenantKey(i, "slowdown")]
		if shared <= 0 || solo <= 0 {
			t.Fatalf("tenant %d times missing: %+v", i, out.Values)
		}
		// Contention can only slow a tenant down.
		if sd < 1 {
			t.Fatalf("tenant %d sped up under contention: slowdown %v", i, sd)
		}
		if got := shared / solo; got < sd*0.999 || got > sd*1.001 {
			t.Fatalf("tenant %d slowdown inconsistent: %v vs %v/%v", i, sd, shared, solo)
		}
	}
	if f := out.Values["fairness"]; f < 1 {
		t.Fatalf("fairness = %v, must be >= 1 (max/min slowdown)", f)
	}
}

func tenantKey(i int, suffix string) string {
	return "t" + string(rune('0'+i)) + "_" + suffix
}

func TestHeterogeneousFingerprintsDisjoint(t *testing.T) {
	// Property: every heterogeneous point fingerprint is disjoint from
	// the whole homogeneous builtin corpus (both modes) and unique
	// among the heterogeneous points themselves. (Builtins may share
	// fingerprints with each other by design — the Fig. 7/8/9 trio
	// sweeps the same physical systems.)
	homog := map[string]string{}
	for _, name := range BuiltinNames() {
		for _, full := range []bool{false, true} {
			points, err := MustBuiltin(name).PointsFor(full)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range points {
				homog[p.Fingerprint] = name + "/" + p.Key
			}
		}
	}
	het := map[string]string{}
	for _, name := range []string{"hetfarm", "tenants"} {
		for _, full := range []bool{false, true} {
			sc := loadHet(t, name)
			points, err := sc.PointsFor(full)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range points {
				owner := name + "/" + p.Key
				if p.Fingerprint == "" {
					t.Fatalf("%s: empty fingerprint", owner)
				}
				if prev, hit := homog[p.Fingerprint]; hit {
					t.Fatalf("heterogeneous point %s aliases homogeneous cache entry %s", owner, prev)
				}
				// Same point across modes (quick == full) is legitimate;
				// distinct points sharing a fingerprint are collisions.
				if prev, dup := het[p.Fingerprint]; dup && prev != owner {
					t.Fatalf("fingerprint collision: %s aliases %s", owner, prev)
				}
				het[p.Fingerprint] = owner
			}
		}
	}

	// Same config, different workload kinds: the leading identity
	// element keeps them apart even at identical sizes.
	cfg := core.PCIe8GB()
	cfg.SMMU.Bypass = true
	cfg = cfg.Resolved()
	if GEMMPoint(&cfg, 64, nil).Fingerprint == FarmPoint(&cfg, 64).Fingerprint {
		t.Fatal("farm point aliases gemm point over the same config")
	}
	if FarmPoint(&cfg, 64).Fingerprint == TenantsPoint(&cfg, []TenantJob{{N: 64, Jobs: 1}}).Fingerprint {
		t.Fatal("tenants point aliases farm point")
	}

	// A cluster stanza must change the config fingerprint even when it
	// resolves to the same accelerator count.
	plain := core.PCIe8GB()
	plain.Accelerators = 2
	hetero := core.PCIe8GB()
	hetero.Cluster = []core.ClusterSlot{{Kind: "gemm", N: 1}, {Kind: "vit", N: 1}}
	if FarmPoint(bypassed(plain), 64).Fingerprint == FarmPoint(bypassed(hetero), 64).Fingerprint {
		t.Fatal("heterogeneous cluster aliases the homogeneous 2-accel config")
	}
}

func bypassed(cfg core.Config) *core.Config {
	cfg.SMMU.Bypass = true
	cfg = cfg.Resolved()
	return &cfg
}
