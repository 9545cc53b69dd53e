//go:build race

package sim_test

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of Puts, so a test cannot count on
// getting back what it put in a pool.
const raceEnabled = true
