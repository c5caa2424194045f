//go:build race

package grtree

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a quarter of what it is given, so pooled writers are rebuilt and an
// allocation count is not the program's own.
const raceEnabled = true
