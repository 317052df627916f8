//go:build race

package cria_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop objects at random, so allocation counts under it measure the
// detector, not the code.
const raceEnabled = true
