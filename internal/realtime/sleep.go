package realtime

import "time"

// sleeper is how the timer goroutine waits for its next deadline. The
// runtime calls arm and close with tmu held, from any goroutine, so they
// never race each other; wait runs on the timer goroutine only, unlocked.
type sleeper interface {
	// arm sets the deadline the current or next wait ends at to d from
	// now (d <= 0: at once), replacing the previous one.
	arm(d time.Duration)
	// wait blocks until the armed deadline passes. It may return early; an
	// arm that lands before wait is called is not lost.
	wait()
	// close releases the sleeper's resources; arm is a no-op afterwards.
	close()
}

// timerSleeper sleeps on a Go timer. The Go scheduler rounds sub-millisecond
// timer sleeps up to its netpoller's millisecond resolution once sockets are
// open, so this is the fallback where the precise sleeper is unavailable.
type timerSleeper struct{ t *time.Timer }

func newTimerSleeper() *timerSleeper {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerSleeper{t: t}
}

// arm resets the timer. A fire that raced the reset is left in the channel
// and only cuts the next wait short.
func (s *timerSleeper) arm(d time.Duration) { s.t.Reset(d) }

func (s *timerSleeper) wait() { <-s.t.C }

func (s *timerSleeper) close() { s.t.Stop() }
