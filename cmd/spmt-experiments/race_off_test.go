//go:build !race

package main

// raceEnabled reports whether the race detector is active. The golden
// sweep takes minutes under it, so it runs only in normal builds.
const raceEnabled = false
