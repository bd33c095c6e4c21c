// Package shard distributes a sweep across worker processes: it
// partitions a scenario's expanded points into K disjoint shards by
// rendezvous-hashing their configuration fingerprints, runs one
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

// Assign returns the rendezvous shard (0-based) for the fingerprint
// among n shards: the shard with the highest score wins. Equal
// fingerprints always land on the same shard, and the winner among the
// first n shards is unaffected by shards ≥ n — the stability property
// the partition tests pin.
func Assign(fingerprint string, n int) int {
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

// Partition assigns every point to one of n shards by
// rendezvous-hashing its fingerprint. Points sharing a fingerprint
// (e.g. ViT scenarios keyed by physical config) land on the same
// shard, so no result is simulated twice across the fleet. Points
// must all carry fingerprints — an uncacheable point has no location
// to merge from.
func Partition(scenarioName string, full bool, points []sweep.Point, n int) (*Plan, error) {
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
	for i, pt := range points {
		if pt.Fingerprint == "" {
			return nil, fmt.Errorf("shard: point %q has no fingerprint; uncacheable points cannot be sharded", pt.Key)
		}
		k := Assign(pt.Fingerprint, n)
		p.Points[i] = Assignment{Index: i, Key: pt.Key, Fingerprint: sweep.Digest(pt.Fingerprint), Shard: k}
		p.Counts[k]++
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
