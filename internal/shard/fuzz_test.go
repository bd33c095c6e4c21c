package shard

// Native fuzz target for the plan parser: whatever bytes arrive from a
// scheduler or a corrupted work directory, ParsePlan must never panic,
// and any plan it accepts must round-trip Parse -> Marshal -> Parse
// with byte-stable output — the contract the fleet launcher and
// `shard run -plan` rely on. Seeded from real `shard plan` output
// (rendezvous and weighted). Run `make fuzz` for a short exploration;
// plain `go test` replays the seed corpus.

import (
	"bytes"
	"testing"
	"time"

	"accesys/internal/sweep"
)

func FuzzPlanParse(f *testing.F) {
	pts := fakePoints(7, nil)
	if plan, err := Partition("seed", false, pts, 3, nil); err == nil {
		if data, err := plan.Marshal(); err == nil {
			f.Add(data)
		}
	}
	prof, err := sweep.LoadProfile(f.TempDir())
	if err == nil {
		for i := range pts {
			prof.Observe(pts[i].Fingerprint, time.Duration(i+1)*100*time.Millisecond)
		}
		if plan, err := Partition("seed-weighted", true, pts, 2, prof); err == nil {
			if data, err := plan.Marshal(); err == nil {
				f.Add(data)
			}
		}
	}
	f.Add([]byte(`{"scenario":"tiny","full":false,"shards":1,"counts":[0],"points":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return // invalid input rejected cleanly is the contract
		}
		m1, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted plan fails to marshal: %v", err)
		}
		p2, err := ParsePlan(m1)
		if err != nil {
			t.Fatalf("marshal output does not re-parse: %v\n%s", err, m1)
		}
		m2, err := p2.Marshal()
		if err != nil {
			t.Fatalf("re-parsed plan fails to marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round trip unstable:\n--- first\n%s\n--- second\n%s", m1, m2)
		}
	})
}
