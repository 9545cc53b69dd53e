//go:build race

package bio

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of Puts, so allocation pins that rely
// on pooled buffers cannot hold.
const raceEnabled = true
