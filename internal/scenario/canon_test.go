package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// canonJSON is the JSON round trip canon reproduces: the reference its
// structural walk is checked against.
func canonJSON(v Value) (Value, error) {
	switch v.(type) {
	case float64, string, bool, nil:
		return v, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("unencodable axis value %T: %v", v, err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// canonCases collects every axis value, default and explore constraint
// value the built-ins and the committed manifests declare.
func canonCases(t *testing.T) map[string][]Value {
	t.Helper()
	cases := map[string][]Value{}
	add := func(from string, s *Scenario) {
		for _, ax := range s.Axes {
			cases[from] = append(cases[from], ax.Values...)
			cases[from] = append(cases[from], ax.FullValues...)
		}
		for _, d := range s.Defaults {
			cases[from] = append(cases[from], d.Value)
		}
		if s.Explore != nil {
			for _, c := range s.Explore.Constraints {
				if c.Equals != nil {
					cases[from] = append(cases[from], c.Equals)
				}
			}
		}
	}
	for _, name := range BuiltinNames() {
		add("builtin "+name, MustBuiltin(name))
	}
	var paths []string
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "testdata")} {
		m, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no committed manifests found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Decoded without validation, so the rejected manifests'
		// values count too.
		var s Scenario
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		add(p, &s)
	}
	cyclic := map[string]any{}
	cyclic["self"] = cyclic
	deep := any(1)
	for range 2 * maxCanonDepth {
		deep = []any{deep}
	}
	cases["edge"] = []Value{
		0, -1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, uint64(math.MaxUint64),
		int8(-8), uint16(16), int32(-32), uint32(32), uint(7),
		float32(0.1), math.NaN(), math.Inf(1), math.Copysign(0, -1), 1e300,
		"s", "\xff", true, nil,
		map[string]any(nil), []any(nil), map[string]any{}, []any{},
		map[string]any{"gbps": 16, "lanes": 16, "nested": map[string]any{"x": []any{1, 2.5, "y", nil}}},
		map[string]any{"a": math.NaN()},
		map[string]any{"a": map[string]any{"b": math.Inf(-1)}},
		[]any{1, math.Inf(1)},
		map[string]any{"s": "\xff"},
		map[string]any{"\xff": 1},
		map[string]any{"f": float32(0.1)},
		map[string]int{"a": 1},
		[]int{1, 2},
		struct {
			A int `json:"a"`
		}{A: 3},
		json.Number("12"),
		cyclic,
		deep,
		func() {},
	}
	return cases
}

// TestCanonMatchesJSONRoundTrip pins canon's structural walk to the
// JSON round trip it replaces: the same values, and the same errors,
// for every committed axis value and the edge cases (large ints,
// nested maps, non-finite floats and invalid UTF-8 inside maps, types
// the walk leaves to the round trip).
func TestCanonMatchesJSONRoundTrip(t *testing.T) {
	for from, vals := range canonCases(t) {
		for i, v := range vals {
			got, gerr := canon(v)
			want, werr := canonJSON(v)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s value %d (%T): canon error %v, round trip %v", from, i, v, gerr, werr)
			}
			if f, ok := want.(float64); ok && math.IsNaN(f) {
				if g, ok := got.(float64); !ok || !math.IsNaN(g) {
					t.Fatalf("%s value %d: canon = %#v, round trip NaN", from, i, got)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s value %d (%T): canon = %#v, round trip %#v", from, i, v, got, want)
			}
		}
	}
}
