//go:build !race

package workload

// raceEnabled reports whether the race detector is active; allocation
// tests skip under it (instrumentation inflates allocation counts).
const raceEnabled = false
