//go:build !race

package executor

const raceDetectorEnabled = false
