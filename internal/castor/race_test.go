//go:build race

package castor

const raceEnabled = true
