//go:build !race

package extsort

// raceEnabled reports whether the race detector is active; allocation
// tests skip under it (instrumentation inflates allocation counts).
const raceEnabled = false
