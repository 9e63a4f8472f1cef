// Package model is a walltime fixture: its import path has no cmd or
// harness element, so it counts as model code and wall-clock reads are
// banned.
package model

import "time"

// clocky exercises every forbidden wall-clock entry point.
func clocky() time.Time {
	time.Sleep(time.Millisecond)    // want `wall-clock time\.Sleep`
	t := time.Now()                 // want `wall-clock time\.Now`
	_ = time.Since(t)               // want `wall-clock time\.Since`
	_ = time.Until(t)               // want `wall-clock time\.Until`
	<-time.After(time.Millisecond)  // want `wall-clock time\.After`
	_ = time.NewTimer(time.Second)  // want `wall-clock time\.NewTimer`
	_ = time.NewTicker(time.Second) // want `wall-clock time\.NewTicker`
	return t
}

// pure time arithmetic carries no wall-clock dependency and passes.
func pure(d time.Duration) time.Duration {
	return 3*time.Second + d
}
