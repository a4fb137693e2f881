//go:build race

package executor

// raceDetectorEnabled skips allocation gates: under -race sync.Pool
// drops entries at random, so a pooled scratch bundle is reallocated a
// random number of times per run.
const raceDetectorEnabled = true
