//go:build race

package transport

// raceEnabled says the tests run under the race detector, where sync.Pool
// drops a random share of what it is given.
const raceEnabled = true
