package scenario

// Farm workloads: every cluster member driven concurrently through its
// own kernel driver. "farm" co-runs one GEMM per member and measures
// the makespan; "tenants" co-runs per-tenant schedules and measures
// each tenant's contention slowdown against a solo run of the same
// schedule on an otherwise-idle but physically identical system.

import (
	"fmt"
	"math"

	"accesys/internal/core"
	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// TenantJob is one tenant's resolved schedule: Jobs back-to-back
// square GEMMs of size N on the tenant's own cluster member.
type TenantJob struct {
	N    int `json:"n"`
	Jobs int `json:"jobs"`
}

// resolveTenants picks each tenant's size for the mode and defaults
// the job count.
func resolveTenants(specs []TenantSpec, full bool) []TenantJob {
	out := make([]TenantJob, len(specs))
	for i, t := range specs {
		jobs := t.Jobs
		if jobs == 0 {
			jobs = 1
		}
		out[i] = TenantJob{N: t.N.Pick(full), Jobs: jobs}
	}
	return out
}

// runTenants simulates the tenants' schedules on a fresh farm (one
// driver per member, core.System.AttachFarm) and returns each driven
// tenant's completion time. only >= 0 restricts the run to that single
// tenant (the solo baseline); -1 co-runs all. The config must have SMMU
// bypass set; RunAt stamps it for farm/tenants workloads before
// fingerprinting.
func runTenants(cfg core.Config, tenants []TenantJob, only int) []sim.Tick {
	sys := core.Build(cfg)
	ends, _ := runSchedules(sys, sys.AttachFarm(), tenants, only)
	return ends
}

// SimTenants co-runs every tenant's schedule (each on its own cluster
// member, sharing the interconnect), then re-runs each schedule alone
// on an identical fresh system, and returns the shared and solo
// completion times. Slowdown = shared/solo is the contention a tenant
// suffers from its neighbours.
func SimTenants(cfg core.Config, tenants []TenantJob) (shared, solo []sim.Tick) {
	shared = runTenants(cfg, tenants, -1)
	solo = make([]sim.Tick, len(tenants))
	for i := range tenants {
		solo[i] = runTenants(cfg, tenants, i)[i]
	}
	return shared, solo
}

// FarmPoint wraps one co-running farm GEMM under cfg as a sweep point.
// The leading "farm" identity element keeps farm fingerprints disjoint
// from every "gemm"/"vit" point over the same config. Like GEMMPoint,
// it shares cfg.
func FarmPoint(cfg *core.Config, n int) sweep.Point {
	return sweep.Point{
		Key:         cfg.Name,
		Fingerprint: sweep.Fingerprint("farm", n, cfg),
		Run: func() sweep.Outcome {
			// A farm is one single-job tenant per cluster member.
			members := make([]TenantJob, cfg.NumAccels())
			for i := range members {
				members[i] = TenantJob{N: n, Jobs: 1}
			}
			ends := runTenants(*cfg, members, -1)
			vals := make(map[string]float64, len(ends))
			var makespan sim.Tick
			for i, e := range ends {
				vals[fmt.Sprintf("m%d_exec_ns", i)] = float64(e.Nanoseconds())
				makespan = max(makespan, e)
			}
			return sweep.Outcome{Dur: makespan, Values: vals}
		},
	}
}

// TenantsPoint wraps one multi-tenant contention run as a sweep point.
// The outcome carries per-tenant shared/solo times, slowdowns, and the
// fairness ratio (max slowdown / min slowdown; 1.0 = perfectly fair).
// Like GEMMPoint, it shares cfg.
func TenantsPoint(cfg *core.Config, tenants []TenantJob) sweep.Point {
	return sweep.Point{
		Key:         cfg.Name,
		Fingerprint: sweep.Fingerprint("tenants", tenants, cfg),
		Run: func() sweep.Outcome {
			shared, solo := SimTenants(*cfg, tenants)
			vals := make(map[string]float64, 3*len(tenants)+1)
			var makespan sim.Tick
			worst, best := 0.0, math.Inf(1)
			for i := range tenants {
				sd := float64(shared[i]) / float64(solo[i])
				vals[fmt.Sprintf("t%d_exec_ns", i)] = float64(shared[i].Nanoseconds())
				vals[fmt.Sprintf("t%d_solo_ns", i)] = float64(solo[i].Nanoseconds())
				vals[fmt.Sprintf("t%d_slowdown", i)] = sd
				worst, best = max(worst, sd), min(best, sd)
				makespan = max(makespan, shared[i])
			}
			vals["fairness"] = worst / best
			return sweep.Outcome{Dur: makespan, Values: vals}
		},
	}
}
