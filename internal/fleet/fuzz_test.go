package fleet

// Native fuzz target for the fleet spec parser: a spec is a user file,
// so ParseSpec must never panic on any bytes, and any spec it accepts
// must survive json.Marshal -> ParseSpec unchanged (compared in its
// marshalled form, where an empty list and an absent one are alike,
// as they are to the launcher). Seeded from the
// README's example spec, LocalSpec, and the specs TestSpecValidation
// rejects. Run `make fuzz` for a short exploration; plain `go test`
// replays the seed corpus.

import (
	"bytes"
	"encoding/json"
	"testing"
)

func FuzzSpecParse(f *testing.F) {
	f.Add([]byte(`{
  "workers": [
    {"name": "here",  "kind": "inprocess"},
    {"name": "local", "kind": "subprocess", "jobs": 4},
    {"name": "hostA", "kind": "command",
     "command": ["ssh", "hostA", "accesys {args}"],
     "env": ["ACCESYS_REMOTE=1"]}
  ]
}`))
	f.Add([]byte(`{"workers": [{"env": [], "command": null}]}`))
	if data, err := json.Marshal(LocalSpec(3)); err == nil {
		f.Add(data)
	}
	for _, bad := range []string{
		`{"workers": []}`,
		`{"workers": [{"kind": "teleport"}]}`,
		`{"workers": [{"kind": "command"}]}`,
		`{"workers": [{"kind": "inprocess", "command": ["x"]}]}`,
		`{"workers": [{"name": "a"}, {"name": "a"}]}`,
		`{"workers": [{"jobs": -1}]}`,
		`{"workers": [{"kind": "inprocess"}], "bogus": 1}`,
		`{"workers": [{}]} {}`,
	} {
		f.Add([]byte(bad))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return // invalid input rejected cleanly is the contract
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec fails to marshal: %v", err)
		}
		s2, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("marshal output does not re-parse: %v\n%s", err, enc)
		}
		if enc2, err := json.Marshal(s2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
