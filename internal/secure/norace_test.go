//go:build !race

package secure

// raceEnabled reports whether this test binary was built with the race
// detector. See race_test.go.
const raceEnabled = false
