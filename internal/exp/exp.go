// Package exp is a shim over internal/scenario's built-in registry. It
// exists only because perfbench (perfbench/workloads.go) imports
// exp.Options and exp.ByID; the benchmark change that moves perfbench
// onto scenario.Builtin deletes it (ROADMAP item 1).
package exp

import "accesys/internal/scenario"

// Options tune experiment scale and execution; see scenario.Options.
type Options = scenario.Options

// ByID resolves a built-in figure by its id. The returned function
// runs it through scenario.Scenario.Run and panics on a failed point.
func ByID(id string) (func(Options) *scenario.Result, bool) {
	sc, ok := scenario.Builtin(id)
	if !ok {
		return nil, false
	}
	return func(opt Options) *scenario.Result {
		res, err := sc.Run(opt)
		if err != nil {
			panic(err)
		}
		return res
	}, true
}
