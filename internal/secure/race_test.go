//go:build race

package secure

// raceEnabled reports whether this test binary was built with the race
// detector. The timing test skips under race: the instrumentation slows
// the kernels unevenly, so its time ratios would mean nothing.
const raceEnabled = true
