// Package shard distributes a sweep across worker processes: it
// partitions a scenario's expanded points into K disjoint shards by
// rendezvous-hashing their configuration fingerprints (or by measured
// wall time, for the points a profile knows), runs one
// shard's slice through the sweep engine into a self-contained cache
// directory, and merges N such directories back into one canonical
// cache. Because outcomes are keyed by content hash, a merged cache
// warm-hits exactly like a single-process run — the partition only
// decides *where* each point simulates, never *what* it produces.
//
// Rendezvous hashing (highest-random-weight) makes the partition
// stable under resizing: going from N to N+1 shards moves only the
// points the new shard wins, everything else stays put. The hash is
// over the raw (unsalted) fingerprint, so a plan is independent of the
// simulator build and of execution knobs like the worker-pool size.
package shard

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strconv"

	"accesys/internal/sweep"
)

// partitionVersion salts every rendezvous score; bump it to reshuffle
// all partitions when the scheme changes incompatibly.
const partitionVersion = "shard/v1"

// score is shard k's rendezvous weight for the fingerprint.
func score(k int, fingerprint string) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, partitionVersion)
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(k))
	h.Write([]byte{0})
	io.WriteString(h, fingerprint)
	var s [sha256.Size]byte
	h.Sum(s[:0])
	return s
}

// assign returns the rendezvous shard (0-based) for the fingerprint
// among n shards: the shard with the highest score wins. Equal
// fingerprints always land on the same shard, and the winner among the
// first n shards is unaffected by shards ≥ n — the stability property
// the partition tests pin.
func assign(fingerprint string, n int) int {
	best, bestScore := 0, score(0, fingerprint)
	for k := 1; k < n; k++ {
		if s := score(k, fingerprint); bytes.Compare(s[:], bestScore[:]) > 0 {
			best, bestScore = k, s
		}
	}
	return best
}

// Assignment places one expanded point in the partition.
type Assignment struct {
	// Index is the point's position in the scenario's expansion order.
	Index int `json:"index"`
	// Key is the point's sweep label.
	Key string `json:"key"`
	// Fingerprint is the sweep.Digest of the point's raw fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Shard is the assigned shard, in [0, Shards).
	Shard int `json:"shard"`
}

// Plan is the deterministic partition of one expanded scenario into
// disjoint shards — what `accesys shard plan` prints for external
// schedulers, and what workers revalidate their slice against.
type Plan struct {
	// Scenario names the partitioned scenario.
	Scenario string `json:"scenario"`
	// Full records whether the expansion used paper-scale sizes.
	Full bool `json:"full"`
	// Shards is the partition width K.
	Shards int `json:"shards"`
	// Counts is the per-shard point count (len == Shards).
	Counts []int `json:"counts"`
	// Weighted reports whether measured wall times drove the partition
	// (greedy LPT over a profile); false means pure rendezvous hashing.
	Weighted bool `json:"weighted,omitempty"`
	// Profiled counts the points whose fingerprints had profiled walls
	// (weighted plans only).
	Profiled int `json:"profiled,omitempty"`
	// PredictedWallNs is the per-shard predicted wall time in
	// nanoseconds (len == Shards; weighted plans only). Unprofiled
	// points contribute the mean profiled wall.
	PredictedWallNs []int64 `json:"predicted_wall_ns,omitempty"`
	// Points assigns every expanded point, in expansion order.
	Points []Assignment `json:"points"`
}

// group is one fingerprint's worth of points: duplicates (e.g. ViT
// scenarios keyed by physical config) must share a shard so no result
// simulates twice, and only the first run is cold, so the group costs
// one wall regardless of its size.
type group struct {
	fingerprint string // raw
	digest      string // sweep.Digest of the fingerprint
	indexes     []int  // expansion indexes, ascending
	wallNs      int64  // profiled wall; 0 when unprofiled
	profiled    bool
	shard       int
}

// Partition assigns every point to one of n shards. Points sharing a
// fingerprint land on the same shard, so no result is simulated twice
// across the fleet. Points must all carry fingerprints — an
// uncacheable point has no location to merge from.
//
// A fingerprint prof has no wall for keeps its rendezvous placement,
// so a nil profile, or one that knows none of the points, gives the
// pure rendezvous plan. When the profile knows some walls, balancing
// by point count would waste fleet time (one shard full of 2048-size
// GEMMs finishes long after a shard of small ones): profiled
// fingerprints are placed greedily onto the least-loaded shard in
// longest-processing-time order (LPT, makespan <= 4/3·OPT + one point
// of slack), and unprofiled ones, left where rendezvous put them
// (profiling more points never shuffles the unprofiled remainder), are
// charged at the mean profiled wall. The result is deterministic given
// the same points and profile state.
func Partition(scenarioName string, full bool, points []sweep.Point, n int, prof *sweep.Profile) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, have %d", n)
	}
	p := &Plan{
		Scenario: scenarioName,
		Full:     full,
		Shards:   n,
		Counts:   make([]int, n),
		Points:   make([]Assignment, len(points)),
	}

	// Group points by fingerprint in first-appearance order.
	var groups, profiled []*group
	byFP := map[string]*group{}
	var totalNs int64
	for i, pt := range points {
		if pt.Fingerprint == "" {
			return nil, fmt.Errorf("shard: point %q has no fingerprint; uncacheable points cannot be sharded", pt.Key)
		}
		g, ok := byFP[pt.Fingerprint]
		if !ok {
			g = &group{fingerprint: pt.Fingerprint, digest: sweep.Digest(pt.Fingerprint)}
			if prof != nil {
				if w, found := prof.WallByDigest(g.digest); found {
					g.wallNs, g.profiled = w.Nanoseconds(), true
					profiled = append(profiled, g)
					totalNs += g.wallNs
				}
			}
			byFP[pt.Fingerprint] = g
			groups = append(groups, g)
		}
		g.indexes = append(g.indexes, i)
		if g.profiled {
			p.Profiled++
		}
	}

	var meanNs int64
	if len(profiled) > 0 {
		meanNs = max(totalNs/int64(len(profiled)), 1)
	}
	loads := make([]int64, n)
	for _, g := range groups {
		if !g.profiled {
			g.shard = assign(g.fingerprint, n)
			loads[g.shard] += meanNs
		}
	}
	if len(profiled) > 0 {
		// LPT: heaviest profiled group first onto the least-loaded
		// shard. Equal-wall groups order by earliest expansion index,
		// and the least-loaded scan uses a strict < so shards carrying
		// equal load always lose to the lowest shard index — both
		// tie-breaks are pinned
		// (TestWeightedPartitionEqualLoadTieGoesToLowestShard), so
		// weighted plans are byte-stable across runs and hosts.
		sort.SliceStable(profiled, func(a, b int) bool {
			if profiled[a].wallNs != profiled[b].wallNs {
				return profiled[a].wallNs > profiled[b].wallNs
			}
			return profiled[a].indexes[0] < profiled[b].indexes[0]
		})
		for _, g := range profiled {
			best := 0
			for k := 1; k < n; k++ {
				if loads[k] < loads[best] {
					best = k
				}
			}
			g.shard = best
			loads[best] += g.wallNs
		}
		p.Weighted, p.PredictedWallNs = true, loads
	}

	for _, g := range groups {
		for _, i := range g.indexes {
			p.Points[i] = Assignment{Index: i, Key: points[i].Key, Fingerprint: g.digest, Shard: g.shard}
			p.Counts[g.shard]++
		}
	}
	return p, nil
}

// Select returns the expansion indexes assigned to shard k, in
// expansion order.
func (p *Plan) Select(k int) []int {
	var idx []int
	for _, a := range p.Points {
		if a.Shard == k {
			idx = append(idx, a.Index)
		}
	}
	return idx
}
