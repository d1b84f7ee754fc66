//go:build race

package l0

// raceEnabled reports a -race build, whose sync.Pool drops items at random,
// so pooled decode scratch allocates on some calls.
const raceEnabled = true
