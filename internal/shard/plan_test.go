package shard

import (
	"strings"
	"testing"
	"time"

	"accesys/internal/sweep"
)

func TestPlanMarshalParseRoundTrip(t *testing.T) {
	pts := fakePoints(9, nil)
	prof, _ := sweep.LoadProfile(t.TempDir())
	for i := 0; i < 9; i += 2 {
		prof.Observe(pts[i].Fingerprint, time.Duration(i+1)*time.Second)
	}
	for name, mk := range map[string]func() (*Plan, error){
		"rendezvous": func() (*Plan, error) { return Partition("rt", false, pts, 3, nil) },
		"weighted":   func() (*Plan, error) { return Partition("rt", true, pts, 3, prof) },
	} {
		plan, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		data, err := plan.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ParsePlan(data)
		if err != nil {
			t.Fatalf("%s: marshal output does not parse: %v", name, err)
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(data) != string(again) {
			t.Fatalf("%s: round trip unstable:\n--- first\n%s\n--- second\n%s", name, data, again)
		}
	}
}

func TestParsePlanRejectsInvalid(t *testing.T) {
	pts := fakePoints(4, nil)
	valid, err := Partition("v", false, pts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := valid.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(p *Plan){
		"zero shards":          func(p *Plan) { p.Shards = 0 },
		"counts length":        func(p *Plan) { p.Counts = p.Counts[:1] },
		"counts mismatch":      func(p *Plan) { p.Counts[0]++ },
		"index out of order":   func(p *Plan) { p.Points[0].Index = 3 },
		"shard out of range":   func(p *Plan) { p.Points[0].Shard = 9 },
		"non-digest":           func(p *Plan) { p.Points[0].Fingerprint = "zz" },
		"missing name":         func(p *Plan) { p.Scenario = "" },
		"split fingerprint":    func(p *Plan) { p.Points[1].Fingerprint = p.Points[0].Fingerprint },
		"unweighted wall data": func(p *Plan) { p.PredictedWallNs = []int64{1, 2} },
		"weighted no walls":    func(p *Plan) { p.Weighted = true; p.Profiled = 1 },
	}
	for name, mut := range cases {
		p, err := ParsePlan(base)
		if err != nil {
			t.Fatal(err)
		}
		mut(p)
		// "split fingerprint" mutation may coincide with equal shards;
		// force a disagreement.
		if name == "split fingerprint" {
			p.Points[1].Shard = 1 - p.Points[0].Shard
			p.Counts = nil
			p.Counts = []int{0, 0}
			for _, a := range p.Points {
				p.Counts[a.Shard]++
			}
		}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	for name, data := range map[string]string{
		"unknown field": `{"scenario":"x","shards":1,"counts":[0],"points":[],"bogus":1}`,
		"trailing data": `{"scenario":"x","shards":1,"counts":[0],"points":[]} {}`,
		"not json":      `]`,
	} {
		if _, err := ParsePlan([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParsePlanAcceptsPlanOutput(t *testing.T) {
	// The exact bytes `accesys shard plan` prints (Marshal) round-trip
	// through ParsePlan with Select still working.
	pts := fakePoints(6, nil)
	plan, err := Partition("cli", false, pts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	total := len(got.Select(0)) + len(got.Select(1))
	if total != 6 {
		t.Fatalf("parsed plan selects %d of 6 points", total)
	}
	if !strings.Contains(string(data), `"scenario": "cli"`) {
		t.Fatalf("marshaled plan missing scenario:\n%s", data)
	}
}
