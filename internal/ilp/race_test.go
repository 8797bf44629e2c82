//go:build race

package ilp_test

const raceEnabled = true
