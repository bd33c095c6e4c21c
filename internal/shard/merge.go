package shard

// The merge step: fold N shard cache directories into one canonical
// cache. Entries are copied verbatim (they are already keyed under
// the workers' binary salt), counters are summed, and two classes of
// inconsistency abort the merge before it can poison the destination:
// shards produced by different simulator builds (salt mismatch) and
// fingerprint collisions with differing payloads (divergent outcomes
// for one configuration — the determinism contract broken somewhere).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"accesys/internal/sweep"
)

// MergeStats summarises one merge.
type MergeStats struct {
	// Shards is the number of source directories folded.
	Shards int `json:"shards"`
	// AlreadyMerged counts sources whose exact shard state was folded
	// into this destination by an earlier merge; their entries still
	// dedupe but their accounting (points, walls, counters) is not
	// double-counted, so re-running a merge is idempotent.
	AlreadyMerged int `json:"already_merged"`
	// Points sums the source summaries' slice sizes.
	Points int `json:"points"`
	// Imported counts entries copied into the destination, Duplicates
	// byte-identical entries already present, Corrupt unreadable
	// source entries skipped.
	Imported   int `json:"imported"`
	Duplicates int `json:"duplicates"`
	Corrupt    int `json:"corrupt"`
	// Salt is the (single) binary salt all sources agreed on.
	Salt string `json:"salt"`
	// Counters are the summed source counters folded into the
	// destination's persisted totals.
	Counters sweep.Counters `json:"counters"`
	// WallNs sums the source workers' wall times — the fleet's total
	// compute, as opposed to its makespan.
	WallNs int64 `json:"wall_ns"`
}

// ledgerName records, inside the destination cache, which shard
// states earlier merges already folded (as digests of their shard.json
// bytes). Its name fails the cache's pre-log entry-name check, so GC
// leaves it in place.
const ledgerName = "merged.json"

// ledger is the on-disk merge history of a destination cache.
type ledger struct {
	Merged []string `json:"merged"`
}

func readLedger(dst string) (map[string]bool, error) {
	seen := map[string]bool{}
	data, err := os.ReadFile(filepath.Join(dst, ledgerName))
	if os.IsNotExist(err) {
		return seen, nil
	}
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("shard: %s: malformed %s: %v", dst, ledgerName, err)
	}
	for _, d := range l.Merged {
		seen[d] = true
	}
	return seen, nil
}

func writeLedger(dst string, seen map[string]bool) error {
	var l ledger
	for d := range seen {
		l.Merged = append(l.Merged, d)
	}
	// Deterministic file content for stable diffs.
	sort.Strings(l.Merged)
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return sweep.WriteFileAtomic(dst, "merged-*.tmp", ledgerName, append(data, '\n'))
}

// Merge folds the shard directories into one canonical cache at dst
// (created if needed; an existing cache is added to). Every source
// must hold a shard.json summary and all sources must share one
// binary salt — entries from different simulator builds can never
// warm-hit together, so merging them is a configuration error, not a
// cache state. Salts are verified before anything is copied.
//
// Merge is idempotent: a destination remembers (in merged.json) which
// exact shard states it has folded, so re-merging the same directories
// — a retried workflow, say — dedupes their entries without
// double-counting their points, walls, or counters. A shard re-run
// after new work rewrites its shard.json and is folded again.
func Merge(dst string, srcs []string) (*MergeStats, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("shard: merge needs at least one shard directory")
	}
	sums := make([]*Summary, len(srcs))
	digests := make([]string, len(srcs))
	for i, dir := range srcs {
		sum, err := ReadSummary(dir)
		if err != nil {
			return nil, err
		}
		sums[i] = sum
		data, err := os.ReadFile(filepath.Join(dir, SummaryName))
		if err != nil {
			return nil, fmt.Errorf("shard: %s: %v", dir, err)
		}
		digests[i] = sweep.Digest(string(data))
	}
	for i, sum := range sums[1:] {
		if sum.Salt != sums[0].Salt {
			return nil, fmt.Errorf(
				"shard: binary salt mismatch: %s was produced by build %.12s…, %s by %.12s…; merge only shards produced by one simulator build",
				srcs[0], sums[0].Salt, srcs[i+1], sum.Salt)
		}
	}

	dc, err := sweep.Open(dst)
	if err != nil {
		return nil, err
	}
	seen, err := readLedger(dst)
	if err != nil {
		return nil, err
	}
	st := &MergeStats{Shards: len(srcs), Salt: sums[0].Salt}
	var totals sweep.Counters
	// The destination's wall-time profile folds in each shard's
	// estimates so it can seed the next weighted plan. Like the
	// counters, the fold is gated on the ledger: retrying a merge that
	// *completed* must not re-apply the EWMA (which would skew
	// estimates toward the source on every retry). Retrying a merge
	// that failed partway may refold — the advisory accounting
	// (profile, counters) is only exactly-once across successful
	// merges; entry deduplication alone is unconditional. A malformed
	// destination profile just disables folding — profiles are
	// advisory scheduling hints, never correctness.
	dp, dperr := sweep.LoadProfile(dst)
	for i, dir := range srcs {
		src, err := sweep.Open(dir)
		if err != nil {
			return nil, err
		}
		is, err := dc.ImportFrom(src)
		st.Imported += is.Imported
		st.Duplicates += is.Duplicates
		st.Corrupt += is.Corrupt
		if err != nil {
			return nil, fmt.Errorf("shard: merging %s: %v", dir, err)
		}
		if seen[digests[i]] {
			st.AlreadyMerged++
			continue
		}
		seen[digests[i]] = true
		c, err := src.Counters()
		if err != nil {
			return nil, fmt.Errorf("shard: merging %s: %v", dir, err)
		}
		totals.Hits += c.Hits
		totals.Misses += c.Misses
		totals.Errors += c.Errors
		st.Points += sums[i].Points
		st.WallNs += sums[i].WallNs
		if dperr == nil {
			if sp, err := sweep.LoadProfile(dir); err == nil {
				dp.Fold(sp)
			}
		}
	}
	// The profile flushes before the counters fold: a failure here
	// aborts the merge while the destination is untouched beyond
	// entries, and AddCounters stays immediately adjacent to the
	// ledger write — the only remaining window in which a crash makes
	// a retried merge double-count counters (and refold the profile).
	if dperr == nil {
		if err := dp.Flush(); err != nil {
			return nil, fmt.Errorf("shard: folding wall profiles: %v", err)
		}
	}
	if err := dc.AddCounters(totals); err != nil {
		return nil, fmt.Errorf("shard: folding counters: %v", err)
	}
	if err := writeLedger(dst, seen); err != nil {
		return nil, fmt.Errorf("shard: recording merge history: %v", err)
	}
	st.Counters = totals
	return st, nil
}
