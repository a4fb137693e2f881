//go:build race

package tpch

// raceDetectorEnabled skips the resident-memory gate: race
// instrumentation adds shadow state to every allocation, so heap bytes
// per row are not meaningful under -race.
const raceDetectorEnabled = true
