//go:build race

package membuf

// raceEnabled marks race builds, whose sync.Pool drops Puts at random.
const raceEnabled = true
