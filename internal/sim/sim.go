// Package sim is a deterministic discrete-event simulation engine. It drives
// the protocol-level BCP experiments: control-message transmission over the
// RCC network, failure detection, rejoin timers, and data transfer.
//
// Events scheduled at equal times fire in scheduling order (FIFO), so runs
// are reproducible for a given seed.
//
// The event queue is a TimerHeap: an index-based 4-ary min-heap over a
// pooled, generation-stamped timer arena. Schedule/At hand out value handles
// rather than boxed pointers, cancellation removes the slot from the heap in
// O(log n) via its stored heap position (no lazy-deletion garbage
// accumulating in long rejoin-heavy runs), and freed slots are recycled
// through a free list, so steady-state scheduling performs zero allocations.
// The wall-clock runtime (internal/realtime) keeps its timers in the same
// TimerHeap type.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; simulated
// durations use the same unit (nanoseconds).
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return Duration(t).String() }

// TimerHost is the issuing runtime's side of a Timer handle: the three
// queries a handle needs against the arena slot it names. *Engine implements
// it for simulated time; internal/realtime implements it on the wall clock
// over the same TimerHeap, so protocol code holds one Timer type regardless
// of which runtime issued it.
type TimerHost interface {
	// StopTimer cancels the (idx, gen) slot if that generation is still
	// pending, reporting whether the cancellation prevented the fire.
	StopTimer(idx int32, gen uint32) bool
	// TimerActive reports whether the (idx, gen) slot is still pending.
	TimerActive(idx int32, gen uint32) bool
	// TimerFired reports how the (idx, gen) slot's generation ended; exact
	// until the host reuses the slot a second time.
	TimerFired(idx int32, gen uint32) bool
}

// Timer is a handle to a scheduled event: an arena slot index plus the
// generation stamp the slot carried when the event was scheduled. The zero
// Timer is inactive; handles are values and may be copied freely. A Timer
// may be stopped before it fires; stopping a fired or already-stopped timer
// is a no-op.
type Timer struct {
	host TimerHost
	idx  int32
	gen  uint32
	at   Time
}

// Stop cancels the timer, unlinking it from the event heap in O(log n). It
// reports whether the cancellation prevented the event from firing.
func (t Timer) Stop() bool {
	if t.host == nil {
		return false
	}
	return t.host.StopTimer(t.idx, t.gen)
}

// Fired reports whether the timer's event has run. The answer is exact
// while the timer is pending and until the engine reuses its arena slot a
// second time; after that it reports the slot's most recently recorded
// outcome (no protocol code holds handles that long — rejoin timers are
// either stopped or queried before re-arming).
func (t Timer) Fired() bool {
	if t.host == nil {
		return false
	}
	return t.host.TimerFired(t.idx, t.gen)
}

// Active reports whether the timer is still pending: scheduled, not fired,
// and not stopped. The zero Timer is inactive.
func (t Timer) Active() bool {
	return t.host != nil && t.host.TimerActive(t.idx, t.gen)
}

// When returns the scheduled firing time.
func (t Timer) When() Time { return t.at }

// Engine is the simulation executive. It is not safe for concurrent use:
// the simulated world is single-threaded by design, which keeps protocol
// traces reproducible.
type Engine struct {
	now       Time
	q         TimerHeap
	rng       *rand.Rand
	processed uint64
}

// New creates an engine whose random source is seeded deterministically.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled. Stopped timers
// leave the queue immediately, so the count is exact.
func (e *Engine) Pending() int { return e.q.Len() }

// Schedule runs fn after delay d. A negative delay panics: the simulated
// world cannot rewrite its past.
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	return e.q.Push(e, t, fn)
}

// ScheduleBatch schedules every function in fns to run after delay d,
// appending one handle per function to out (whose capacity is reused) and
// returning it. The batch behaves exactly like len(fns) sequential Schedule
// calls — same deadlines, same FIFO order among the batch and against
// everything else in the queue — but the heap is restored once per batch
// (TimerHeap.PushBatch). Recovery storms arm their per-channel rejoin
// timers through this path.
func (e *Engine) ScheduleBatch(d Duration, fns []func(), out []Timer) []Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.q.PushBatch(e, e.now.Add(d), fns, out)
}

// StopTimer implements TimerHost: it cancels the (idx, gen) slot if that
// generation is still pending, unlinking it from the heap in O(log n).
func (e *Engine) StopTimer(idx int32, gen uint32) bool { return e.q.Stop(idx, gen) }

// TimerActive implements TimerHost.
func (e *Engine) TimerActive(idx int32, gen uint32) bool { return e.q.Active(idx, gen) }

// TimerFired implements TimerHost.
func (e *Engine) TimerFired(idx int32, gen uint32) bool { return e.q.Fired(idx, gen) }

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed (false when the queue is empty).
func (e *Engine) Step() bool {
	if e.q.Len() == 0 {
		return false
	}
	// Pop releases the slot before fn runs: the event may reschedule into
	// it, and any handle to the fired generation must already read as dead.
	at, fn := e.q.Pop()
	e.now = at
	e.processed++
	fn()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing times <= t, then advances the clock
// to exactly t.
func (e *Engine) RunUntil(t Time) {
	for {
		at, _, ok := e.q.Peek()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for the next d of simulated time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
