//go:build !race

package grtree

const raceEnabled = false
