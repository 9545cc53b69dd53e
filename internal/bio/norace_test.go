//go:build !race

package bio

const raceEnabled = false
