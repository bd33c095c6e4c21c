// Package sim provides the discrete-event simulation kernel that every
// AcceSys component runs on: a picosecond tick domain, a deterministic
// event queue, and clock-domain helpers.
//
// The kernel mirrors gem5's core abstractions. All simulated components
// are single-threaded state machines that schedule closures on one
// EventQueue; determinism comes from ordering events by
// (tick, priority, insertion sequence). No goroutines take part in the
// simulated timing path.
package sim

import "fmt"

// Tick is the simulation time unit: one picosecond, as in gem5.
type Tick uint64

// Common durations expressed in ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000 * Picosecond
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
	Second      Tick = 1000 * Millisecond
)

// MaxTick is the largest representable simulation time.
const MaxTick = Tick(^uint64(0))

// String renders a tick count using the largest unit that keeps three
// significant integer digits, e.g. "1.500us".
func (t Tick) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Nanoseconds converts the tick count to a float64 nanosecond value.
func (t Tick) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds converts the tick count to a float64 second value.
func (t Tick) Seconds() float64 { return float64(t) / float64(Second) }

// TicksFromNanoseconds converts a floating nanosecond duration to ticks,
// rounding to the nearest picosecond.
func TicksFromNanoseconds(ns float64) Tick {
	if ns <= 0 {
		return 0
	}
	return Tick(ns*float64(Nanosecond) + 0.5)
}
