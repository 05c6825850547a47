//go:build race

package exec

func init() { raceEnabled = true }
