//go:build race

package core

// raceEnabled reports a -race build: its instrumentation slows every
// spawn several-fold, so tests that count rate-driven events skip.
const raceEnabled = true
