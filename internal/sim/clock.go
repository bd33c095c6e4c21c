package sim

import "fmt"

// Clock describes a clock domain by its period in ticks. Components
// embed a Clock to convert cycle counts to ticks, as gem5's
// ClockedObject does.
type Clock struct {
	period Tick
}

// NewClock builds a clock domain from a frequency in MHz.
func NewClock(freqMHz float64) Clock {
	if freqMHz <= 0 {
		panic(fmt.Sprintf("sim: invalid clock frequency %vMHz", freqMHz))
	}
	return Clock{period: Tick(1e6/freqMHz + 0.5)}
}

// Cycles converts a cycle count to ticks.
func (c Clock) Cycles(n uint64) Tick { return Tick(n) * c.period }
