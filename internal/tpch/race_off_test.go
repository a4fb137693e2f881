//go:build !race

package tpch

const raceDetectorEnabled = false
