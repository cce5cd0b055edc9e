//go:build race

package queueing

// raceDetector reports a -race build, in which sync.Pool drops a quarter
// of the values put back, so recycled replication state is reallocated at
// random.
const raceDetector = true
