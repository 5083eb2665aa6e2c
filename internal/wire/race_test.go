//go:build race

package wire

// raceEnabled reports a -race build; allocation pins skip under it.
const raceEnabled = true
