//go:build !linux

package realtime

// newSleeper returns the Go-timer sleeper: the timerfd sleeper is
// Linux-only.
func newSleeper() sleeper { return newTimerSleeper() }
