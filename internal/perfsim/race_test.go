//go:build race

package perfsim

// raceEnabled reports whether the race detector instruments this
// build; it adds allocations the arena tests must not count.
const raceEnabled = true
