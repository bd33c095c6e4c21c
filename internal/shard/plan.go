package shard

// Plan serialization: the wire format between `shard plan`, the fleet
// launcher, and `shard run -plan`. A weighted plan depends on the
// profile state of the machine that computed it, so unlike the pure
// rendezvous partition it cannot be recomputed identically elsewhere —
// workers must run the serialized plan, and ParsePlan must therefore
// reject anything structurally inconsistent before a worker trusts it.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// ParsePlan decodes and validates one serialized plan. Unknown fields
// and trailing data are rejected, like scenario manifests.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("shard: plan: %v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("shard: plan: trailing data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Marshal encodes the plan as JSON — the inverse of ParsePlan.
func (p *Plan) Marshal() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(p, "", "  ")
}

// isDigest reports whether s looks like a sweep.Digest value (hex SHA-256).
func isDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// Validate checks the plan's structural invariants: a disjoint cover
// of an indexable expansion with consistent per-shard accounting. It
// cannot re-verify the assignments against the scenario (plans carry
// digests, not raw fingerprints) — Worker.Run does that against the
// actual expansion.
func (p *Plan) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("shard: plan %s: %s", p.Scenario, fmt.Sprintf(format, args...))
	}
	if p.Scenario == "" {
		return fmt.Errorf("shard: plan: missing scenario name")
	}
	if p.Shards < 1 {
		return fail("need at least one shard, have %d", p.Shards)
	}
	if len(p.Counts) != p.Shards {
		return fail("counts cover %d of %d shards", len(p.Counts), p.Shards)
	}
	counts := make([]int, p.Shards)
	byFP := map[string]int{}
	for i, a := range p.Points {
		if a.Index != i {
			return fail("point %d carries index %d; plans must list points in expansion order", i, a.Index)
		}
		if a.Shard < 0 || a.Shard >= p.Shards {
			return fail("point %d assigned to shard %d, outside [0, %d)", i, a.Shard, p.Shards)
		}
		if !isDigest(a.Fingerprint) {
			return fail("point %d fingerprint %q is not a digest", i, a.Fingerprint)
		}
		if prev, ok := byFP[a.Fingerprint]; ok && prev != a.Shard {
			return fail("fingerprint %.12s… split across shards %d and %d", a.Fingerprint, prev, a.Shard)
		}
		byFP[a.Fingerprint] = a.Shard
		counts[a.Shard]++
	}
	for k, c := range counts {
		if p.Counts[k] != c {
			return fail("shard %d holds %d points but counts says %d", k, c, p.Counts[k])
		}
	}
	if p.Weighted {
		if p.Profiled < 1 || p.Profiled > len(p.Points) {
			return fail("weighted plan profiled %d of %d points", p.Profiled, len(p.Points))
		}
		if len(p.PredictedWallNs) != p.Shards {
			return fail("weighted plan predicts %d of %d shard walls", len(p.PredictedWallNs), p.Shards)
		}
		for k, ns := range p.PredictedWallNs {
			if ns < 0 {
				return fail("shard %d predicted wall %d is negative", k, ns)
			}
		}
	} else {
		if p.Profiled != 0 || len(p.PredictedWallNs) != 0 {
			return fail("unweighted plan carries profile-derived fields")
		}
	}
	return nil
}
