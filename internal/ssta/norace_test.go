//go:build !race

package ssta

const raceEnabled = false
