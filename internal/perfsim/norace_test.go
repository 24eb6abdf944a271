//go:build !race

package perfsim

const raceEnabled = false
