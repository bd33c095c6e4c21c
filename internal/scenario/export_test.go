package scenario

import (
	"sync/atomic"
	"testing"
)

// CountDecodes registers, for the rest of the test, an axis named
// "decode_probe" that sets nothing and counts every parse of its
// values. A scenario declaring it as one default counts its decodes.
// The test must not run in parallel with others.
func CountDecodes(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	axisRegistry["decode_probe"] = axisDef{phaseField, func(Value) (setting, error) {
		n.Add(1)
		return labelled("", func(*Run) {}), nil
	}}
	t.Cleanup(func() { delete(axisRegistry, "decode_probe") })
	return n
}
