//go:build race

package sirl_test

const raceEnabled = true
