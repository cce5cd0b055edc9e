//go:build !race

package queueing

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
