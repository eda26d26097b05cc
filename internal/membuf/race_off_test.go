//go:build !race

package membuf

const raceEnabled = false
