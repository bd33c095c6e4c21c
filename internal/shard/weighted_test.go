package shard

// Property tests for the weighted partitioner: whatever the profile
// says, the plan must stay a disjoint cover; with a full profile the
// greedy LPT placement obeys the classic list-scheduling bound (max
// shard load <= mean load + heaviest point, which implies the LPT
// 4/3·OPT + heaviest bound since OPT >= mean); and with no profile at
// all the plan degrades to exactly the rendezvous partition.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"accesys/internal/sweep"
)

// profileFor builds an in-memory profile assigning the given walls (in
// milliseconds) to the corresponding points.
func profileFor(t *testing.T, pts []sweep.Point, wallsMs map[int]int64) *sweep.Profile {
	t.Helper()
	prof, err := sweep.LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range wallsMs {
		prof.Observe(pts[i].Fingerprint, time.Duration(ms)*time.Millisecond)
	}
	return prof
}

// checkCover asserts the plan covers every point exactly once with
// consistent counts, and that equal fingerprints share a shard.
func checkCover(t *testing.T, plan *Plan, npoints, n int) {
	t.Helper()
	if len(plan.Points) != npoints {
		t.Fatalf("plan covers %d of %d points", len(plan.Points), npoints)
	}
	seen := make([]int, npoints)
	total := 0
	for k := 0; k < n; k++ {
		sel := plan.Select(k)
		if len(sel) != plan.Counts[k] {
			t.Fatalf("Select(%d) has %d indexes, Counts says %d", k, len(sel), plan.Counts[k])
		}
		for _, idx := range sel {
			seen[idx]++
		}
		total += len(sel)
	}
	if total != npoints {
		t.Fatalf("shards cover %d of %d points", total, npoints)
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("point %d assigned %d times", idx, c)
		}
	}
	byFP := map[string]int{}
	for _, a := range plan.Points {
		if prev, ok := byFP[a.Fingerprint]; ok && prev != a.Shard {
			t.Fatalf("fingerprint %.12s… split across shards %d and %d", a.Fingerprint, prev, a.Shard)
		}
		byFP[a.Fingerprint] = a.Shard
	}
}

func TestWeightedPartitionIsDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		npoints := 1 + rng.Intn(40)
		pts := fakePoints(npoints, nil)
		// Profile a random subset with random walls.
		walls := map[int]int64{}
		for i := 0; i < npoints; i++ {
			if rng.Intn(3) > 0 {
				walls[i] = 1 + rng.Int63n(10000)
			}
		}
		prof := profileFor(t, pts, walls)
		for n := 1; n <= 6; n++ {
			plan, err := Partition("fake", false, pts, n, prof)
			if err != nil {
				t.Fatal(err)
			}
			checkCover(t, plan, npoints, n)
			if len(walls) > 0 {
				if !plan.Weighted || plan.Profiled != len(walls) {
					t.Fatalf("trial %d N=%d: weighted=%v profiled=%d, want %d profiled",
						trial, n, plan.Weighted, plan.Profiled, len(walls))
				}
				if len(plan.PredictedWallNs) != n {
					t.Fatalf("predicted walls cover %d of %d shards", len(plan.PredictedWallNs), n)
				}
			}
			// Serialization invariants hold for every generated plan.
			if err := plan.Validate(); err != nil {
				t.Fatalf("generated plan invalid: %v", err)
			}
		}
	}
}

func TestWeightedPartitionObeysGreedyBound(t *testing.T) {
	// With every point profiled, greedy least-loaded placement bounds
	// the makespan: max shard load <= total/n + heaviest. Since
	// OPT >= total/n, this implies the LPT guarantee of
	// 4/3·OPT + heaviest the issue asks to pin.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		npoints := 1 + rng.Intn(60)
		pts := fakePoints(npoints, nil)
		walls := map[int]int64{}
		var total, heaviest int64
		for i := 0; i < npoints; i++ {
			w := 1 + rng.Int63n(20000)
			walls[i] = w
			total += w * int64(time.Millisecond)
			if w*int64(time.Millisecond) > heaviest {
				heaviest = w * int64(time.Millisecond)
			}
		}
		prof := profileFor(t, pts, walls)
		for n := 1; n <= 8; n++ {
			plan, err := Partition("fake", false, pts, n, prof)
			if err != nil {
				t.Fatal(err)
			}
			var max int64
			for _, l := range plan.PredictedWallNs {
				if l > max {
					max = l
				}
			}
			bound := total/int64(n) + heaviest
			if max > bound {
				t.Fatalf("trial %d N=%d: max shard load %d exceeds greedy bound %d (total %d, heaviest %d)",
					trial, n, max, bound, total, heaviest)
			}
		}
	}
}

// rendezvousPlan is the reference unweighted plan: every point on its
// fingerprint's rendezvous shard, no weighted fields.
func rendezvousPlan(name string, pts []sweep.Point, n int) *Plan {
	p := &Plan{Scenario: name, Shards: n, Counts: make([]int, n), Points: make([]Assignment, len(pts))}
	for i, pt := range pts {
		k := assign(pt.Fingerprint, n)
		p.Points[i] = Assignment{Index: i, Key: pt.Key, Fingerprint: sweep.Digest(pt.Fingerprint), Shard: k}
		p.Counts[k]++
	}
	return p
}

func TestWeightedPartitionEmptyProfileDegradesToRendezvous(t *testing.T) {
	pts := fakePoints(20, nil)
	empty, err := sweep.LoadProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A foreign profile (no overlap with these points) must degrade the
	// same way as an empty or nil one.
	foreign, _ := sweep.LoadProfile(t.TempDir())
	foreign.Observe("unrelated-fingerprint", time.Second)
	for n := 1; n <= 6; n++ {
		want := rendezvousPlan("fake", pts, n)
		for name, prof := range map[string]*sweep.Profile{"nil": nil, "empty": empty, "foreign": foreign} {
			got, err := Partition("fake", false, pts, n, prof)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("N=%d %s profile: weighted plan differs from the rendezvous partition:\ngot  %+v\nwant %+v", n, name, got, want)
			}
		}
	}
}

func TestWeightedPartitionDeterministic(t *testing.T) {
	pts := fakePoints(30, nil)
	walls := map[int]int64{}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i += 2 {
		walls[i] = 1 + rng.Int63n(5000)
	}
	prof := profileFor(t, pts, walls)
	for n := 2; n <= 5; n++ {
		p1, err := Partition("fake", false, pts, n, prof)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Partition("fake", false, pts, n, prof)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("N=%d: weighted partition not deterministic", n)
		}
	}
}

func TestWeightedPartitionKeepsDuplicateFingerprintsTogether(t *testing.T) {
	// Points sharing a fingerprint (ViT runs keyed by physical config)
	// must land on one shard and cost one wall, not many.
	pts := make([]sweep.Point, 8)
	for i := range pts {
		pts[i] = sweep.Point{
			Key:         fmt.Sprintf("dup-%d", i),
			Fingerprint: sweep.Fingerprint("dup", i%2), // two distinct configs
		}
	}
	prof, _ := sweep.LoadProfile(t.TempDir())
	prof.Observe(pts[0].Fingerprint, 10*time.Second)
	prof.Observe(pts[1].Fingerprint, 10*time.Second)
	plan, err := Partition("dup", false, pts, 2, prof)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, plan, 8, 2)
	// Two equal-cost groups over two shards: LPT must split them one
	// per shard, each predicted at one wall.
	for k, ns := range plan.PredictedWallNs {
		if ns != (10 * time.Second).Nanoseconds() {
			t.Fatalf("shard %d predicted %d ns, want one 10s wall per shard (duplicates double-charged?)", k, ns)
		}
	}
}

func TestWeightedPlanNoWorseThanUnweighted(t *testing.T) {
	// The acceptance property: with a warm profile, the weighted plan's
	// predicted makespan is no worse than the rendezvous plan's
	// (evaluated under the same profile). Pinned over several seeded
	// profiles on a fig4-sized point set.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		const npoints = 35
		pts := fakePoints(npoints, nil)
		walls := map[int]int64{}
		for i := 0; i < npoints; i++ {
			// Packet-size-sweep-like spread: most points cheap, a few 10x.
			w := 100 + rng.Int63n(900)
			if rng.Intn(5) == 0 {
				w *= 10
			}
			walls[i] = w
		}
		prof := profileFor(t, pts, walls)
		for n := 2; n <= 6; n++ {
			weighted, err := Partition("fig4like", false, pts, n, prof)
			if err != nil {
				t.Fatal(err)
			}
			unweighted, err := Partition("fig4like", false, pts, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			maxW := predictedMax(weighted.PredictedWallNs)
			maxU := predictedMax(predictLoads(unweighted, pts, prof, n))
			if maxW > maxU {
				t.Fatalf("seed %d N=%d: weighted makespan %d exceeds unweighted %d", seed, n, maxW, maxU)
			}
		}
	}
}

// predictLoads evaluates an unweighted plan's per-shard load under the
// profile — the comparison baseline for the weighted plan.
func predictLoads(p *Plan, pts []sweep.Point, prof *sweep.Profile, n int) []int64 {
	loads := make([]int64, n)
	seen := map[string]bool{}
	for i, a := range p.Points {
		if seen[a.Fingerprint] {
			continue // duplicate fingerprints cost one wall
		}
		seen[a.Fingerprint] = true
		if w, ok := prof.Wall(pts[i].Fingerprint); ok {
			loads[a.Shard] += w.Nanoseconds()
		}
	}
	return loads
}

func predictedMax(loads []int64) int64 {
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// TestWeightedPartitionEqualLoadTieGoesToLowestShard pins the greedy
// LPT tie-break: when several shards carry equal load, the next group
// must land on the lowest shard index. Four equal-wall groups over
// two shards therefore alternate 0,1,0,1 — any other winner means the
// scan's comparison regressed to <= (or worse, map iteration).
func TestWeightedPartitionEqualLoadTieGoesToLowestShard(t *testing.T) {
	pts := fakePoints(4, nil)
	walls := map[int]int64{0: 50, 1: 50, 2: 50, 3: 50}
	plan, err := Partition("tie", false, pts, 2, profileFor(t, pts, walls))
	if err != nil {
		t.Fatal(err)
	}
	// LPT order among equal walls is expansion order, so the shard
	// sequence is fully determined: 0 (tie 0==0), 1 (0 loaded), 0
	// (tie 50==50), 1.
	want := []int{0, 1, 0, 1}
	for i, a := range plan.Points {
		if a.Shard != want[i] {
			t.Fatalf("point %d on shard %d, want %d (plan %v)", i, a.Shard, want[i],
				[]int{plan.Points[0].Shard, plan.Points[1].Shard, plan.Points[2].Shard, plan.Points[3].Shard})
		}
	}
}

// TestWeightedPlanByteStable is the property test behind the
// determinism claim: for random point sets and profiles, repeated
// Partition calls marshal to byte-identical plans.
func TestWeightedPlanByteStable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		npoints := 1 + rng.Intn(30)
		n := 1 + rng.Intn(5)
		pts := fakePoints(npoints, nil)
		walls := map[int]int64{}
		for i := 0; i < npoints; i++ {
			switch rng.Intn(3) {
			case 0: // unprofiled
			case 1: // a deliberate wall collision class
				walls[i] = 40
			default:
				walls[i] = 1 + int64(rng.Intn(100))
			}
		}
		prof := profileFor(t, pts, walls)
		base, err := Partition("stable", false, pts, n, prof)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			plan, err := Partition("stable", false, pts, n, prof)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("trial %d rep %d: weighted plan not byte-stable:\n%s\nvs\n%s", trial, rep, want, got)
			}
		}
	}
}
