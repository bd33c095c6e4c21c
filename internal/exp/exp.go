// Package exp regenerates every table and figure of the paper's
// evaluation (Section V). Each experiment's run matrix is declared as
// a scenario value in internal/scenario's built-in registry; this
// package fans the matrix out over the sweep engine and adds the
// figure-specific row shaping plus a shape check verifying the
// qualitative claim (who wins, where the knees/crossovers fall).
package exp

import (
	"accesys/internal/scenario"
	"accesys/internal/sweep"
)

// Options tune experiment scale and execution; see scenario.Options.
type Options = scenario.Options

// Result is one regenerated table/figure; see scenario.Result.
type Result = scenario.Result

// sweep expands the named built-in scenario for the options' scale,
// sweeps it, and returns the resolved runs with their outcomes in
// declaration order.
func sweepScenario(opt Options, id string) (*scenario.Scenario, []scenario.Run, []sweep.Outcome) {
	sc := scenario.MustBuiltin(id)
	runs, err := sc.Expand(opt.Full)
	var outs []sweep.Outcome
	if err == nil {
		outs = opt.Sweep(sc.Name, sc.Points(runs))
		err = sweep.Failed(outs)
	}
	if err != nil {
		// Built-in scenarios are validated and run by tests; a failure
		// here is a programming error.
		panic(err)
	}
	return sc, runs, outs
}

// experiments lists every reproduced figure and table in paper order.
var experiments = []struct {
	id  string
	run func(Options) *Result
}{
	{"fig2", Fig2Roofline},
	{"fig3", Fig3BandwidthSweep},
	{"fig4", Fig4PacketSize},
	{"fig5", Fig5MemoryLocation},
	{"fig6", Fig6MemSweep},
	{"tab4", Tab4Translation},
	{"fig7", Fig7Transformer},
	{"fig8", Fig8Split},
	{"fig9", Fig9Model},
}

// ByID resolves an experiment by its identifier.
func ByID(id string) (func(Options) *Result, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
