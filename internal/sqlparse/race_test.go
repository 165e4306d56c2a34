//go:build race

package sqlparse

func init() { raceEnabled = true }
