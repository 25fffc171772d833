//go:build !race

package squigglefilter

const raceEnabled = false
