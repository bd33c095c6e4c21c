//go:build race

package cache

// The race detector instruments the allocator, so allocation counts
// are not meaningful under -race.
const raceEnabled = true
