// Package realtime executes the protocol stack on the wall clock. It is the
// live sibling of sim.Engine behind the runtime.Runtime seam: the same daemon
// code, the same sim.Timer handles, the same release-before-fire and
// Stop-prevents-fire semantics — but deadlines come from the monotonic clock
// and delivery happens on real goroutines.
//
// # Execution model
//
// The runtime hosts per-node actors: one goroutine per node draining a
// bounded mailbox of closures (transport deliveries, injected operations).
// Actor goroutines and the timer goroutine all execute protocol callbacks
// under one execution lock (mu), so from the protocol's point of view the
// world is still single-threaded — Network/Manager state is shared across
// nodes in this reproduction, and the lock preserves the invariant the sim
// gives for free. The actor boundary still buys what the paper's deployment
// needs: bounded per-node queues with drop-on-overflow backpressure (RCC
// retransmission recovers dropped control traffic), and no transport
// goroutine ever touches protocol state directly.
//
// # Timers
//
// Timers live in a sim.TimerHeap, the simulator's own arena: an index-based
// 4-ary min-heap over pooled, generation-stamped slots, value sim.Timer
// handles, O(log n) Stop, release-before-fire so a callback can re-arm into
// its own slot. Timers fire on two paths, both under the execution lock:
//
//   - Inline. Every serialized callback — actor mailbox item, Exec closure,
//     timer round — ends with a drain pass that, before mu is released, pops
//     and runs each timer already due. The pass is bounded: timers armed
//     while it runs wait for the next pass. A callback that arms a due-now
//     timer (an RCC frame eligible at once) therefore sends it on its own
//     goroutine, with no hand-off to the timer goroutine.
//   - The sleeper. A single timer goroutine sleeps toward the earliest
//     deadline and runs a drain pass when it arrives. Arming a timer moves
//     the sleeper's deadline only when the new one comes first; inside a
//     callback even that is left to the callback's drain pass, which re-arms
//     the sleeper once for whatever is still pending. On Linux the sleeper
//     waits on a timerfd registered with the Go netpoller: the kernel fires
//     it at its deadline with no timer slack and the expiry wakes the
//     netpoller at once, so a sub-millisecond deadline is met within tens of
//     microseconds (a Go timer's sleep is rounded up to the next millisecond
//     once the netpoller is busy), and the waiting goroutine holds no P.
//     Other systems sleep on a Go timer (sleep_other.go).
//
// Each timer is popped with both mu and tmu held, one at a time, so Stop
// returning true still guarantees the callback never runs — even when an
// earlier callback of the same drain pass is the one that stops it.
//
// # Shutdown
//
// Stop closes a shared stop channel, wakes the sleeper and waits for the
// timer and actor goroutines, then closes the sleeper's timerfd. Mailbox
// channels are never closed — senders race shutdown, and a send on a closed
// channel would panic — instead Post observes the stop channel and reports
// the drop. Stop must not be called from a protocol callback (it would
// deadlock on its own execution lock).
package realtime

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
)

// The wall-clock runtime stands wherever sim.Engine does.
var _ runtime.Runtime = (*Runtime)(nil)

// never is the sleeper's deadline while no timer is pending.
const never = sim.Time(math.MaxInt64)

// Runtime drives protocol daemons on the wall clock. Create with New, start
// actors with StartActors, and always Stop it (not from a protocol callback).
type Runtime struct {
	start time.Time // monotonic epoch; Now() is nanoseconds since here

	// mu is the execution lock: every protocol callback — timer fire, actor
	// mailbox item, Exec closure — runs under it. tmu guards the timer heap,
	// sleepUntil and the sleeper's arm/close. Lock order is mu before tmu;
	// Schedule/At/Stop take only tmu so callbacks already holding mu can
	// re-arm and cancel timers.
	mu  sync.Mutex
	tmu sync.Mutex

	timers sim.TimerHeap
	// sleepUntil is the deadline the timer goroutine sleeps toward; arming
	// an earlier one lowers it and re-arms the sleeper.
	sleepUntil sim.Time
	sl         sleeper
	// inCallback is set while the holder of mu runs protocol code. Arms made
	// meanwhile leave re-arming the sleeper to the closing drain pass, which
	// clears the flag under tmu.
	inCallback atomic.Bool

	rng *rand.Rand // only touched under mu (runtime-serialized callbacks)

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	mailboxes []chan func()
	dropped   atomic.Uint64 // mailbox posts refused (full or stopping)
}

// New creates a runtime with a seeded random source and starts its timer
// goroutine. The caller owns the lifecycle and must call Stop.
func New(seed int64) *Runtime { return newRuntime(seed, newSleeper()) }

// newRuntime is New with the timer goroutine's sleeper supplied.
func newRuntime(seed int64, sl sleeper) *Runtime {
	r := &Runtime{
		start:      time.Now(),
		rng:        rand.New(rand.NewSource(seed)),
		stop:       make(chan struct{}),
		sleepUntil: never,
		sl:         sl,
	}
	r.wg.Add(1)
	go r.timerLoop()
	return r
}

// Now returns monotonic nanoseconds since the runtime started.
func (r *Runtime) Now() sim.Time { return sim.Time(time.Since(r.start)) }

// RNG returns the runtime's random source; safe only from runtime-serialized
// callbacks (or under Exec).
func (r *Runtime) RNG() *rand.Rand { return r.rng }

// Schedule runs fn after delay d. Negative delays are clamped to zero: the
// wall clock cannot fire in the past, and live callers (unlike sim scripts)
// may compute small negative slacks from measured times.
func (r *Runtime) Schedule(d sim.Duration, fn func()) sim.Timer {
	if d < 0 {
		d = 0
	}
	return r.At(r.Now().Add(d), fn)
}

// At runs fn at absolute runtime-clock time t; a t already past fires at
// the next drain pass.
func (r *Runtime) At(t sim.Time, fn func()) sim.Timer {
	if fn == nil {
		panic("realtime: nil event function")
	}
	r.tmu.Lock()
	tm := r.timers.Push(r, t, fn)
	r.nudge(t)
	r.tmu.Unlock()
	return tm
}

// ScheduleBatch schedules every function in fns to run after delay d
// (clamped to zero), appending one handle per function to out and returning
// it. Semantically identical to len(fns) sequential Schedule calls, but the
// timer lock is taken once for the whole batch, the heap is restored once
// (sim.TimerHeap.PushBatch), and the sleeper is re-armed at most once.
func (r *Runtime) ScheduleBatch(d sim.Duration, fns []func(), out []sim.Timer) []sim.Timer {
	if d < 0 {
		d = 0
	}
	if len(fns) == 0 {
		return out
	}
	for _, fn := range fns {
		if fn == nil {
			panic("realtime: nil event function")
		}
	}
	t := r.Now().Add(d)
	r.tmu.Lock()
	out = r.timers.PushBatch(r, t, fns, out)
	r.nudge(t)
	r.tmu.Unlock()
	return out
}

// nudge re-arms the sleeper when t precedes the deadline it sleeps toward.
// Inside a callback that is left to the callback's drain pass, which runs t
// itself if it is due by then and otherwise re-arms the sleeper once.
// Caller holds tmu.
func (r *Runtime) nudge(t sim.Time) {
	if t < r.sleepUntil && !r.inCallback.Load() {
		r.sleepUntil = t
		r.sl.arm(t.Sub(r.Now()))
	}
}

// StopTimer implements sim.TimerHost: cancel the (idx, gen) slot if that
// generation is still pending. Because due timers are popped with both mu
// and tmu held, a true return guarantees the callback will not run.
func (r *Runtime) StopTimer(idx int32, gen uint32) bool {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.timers.Stop(idx, gen)
}

// TimerActive implements sim.TimerHost.
func (r *Runtime) TimerActive(idx int32, gen uint32) bool {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.timers.Active(idx, gen)
}

// TimerFired implements sim.TimerHost.
func (r *Runtime) TimerFired(idx int32, gen uint32) bool {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.timers.Fired(idx, gen)
}

// drain is the pass that closes every serialized callback. Called with mu
// held and inCallback set, it pops and runs each timer already due when the
// pass starts, one at a time: the pop takes tmu, so a timer stopped by an
// earlier callback of the pass is gone from the heap, and the slot is
// released before its callback runs, so the callback can re-arm into it.
// Timers armed during the pass carry a sequence number past the bound and
// wait for the next one; after Stop nothing fires. Finally, under the same
// tmu hold that clears inCallback, the sleeper is re-armed if anything still
// pending precedes its deadline — unless the sleeper itself is draining
// (fromSleeper) and about to recompute that deadline anyway.
func (r *Runtime) drain(fromSleeper bool) {
	r.tmu.Lock()
	if r.timers.Len() > 0 && !r.stopped.Load() {
		now, bound := r.Now(), r.timers.Seq()
		for {
			at, seq, ok := r.timers.Peek()
			if !ok || at > now || seq >= bound {
				break
			}
			_, fn := r.timers.Pop()
			r.tmu.Unlock()
			fn()
			r.tmu.Lock()
		}
	}
	r.inCallback.Store(false)
	if !fromSleeper {
		if at, _, ok := r.timers.Peek(); ok && at < r.sleepUntil {
			r.sleepUntil = at
			r.sl.arm(at.Sub(r.Now()))
		}
	}
	r.tmu.Unlock()
}

// timerLoop sleeps toward the earliest deadline and runs a drain pass when
// it arrives. sleepUntil is published, the sleeper armed and the stop flag
// read under one tmu hold, so an earlier arm — or Stop's — that lands
// before the wait begins re-arms the sleeper rather than being overwritten.
func (r *Runtime) timerLoop() {
	defer r.wg.Done()
	for {
		r.tmu.Lock()
		if r.stopped.Load() {
			r.tmu.Unlock()
			return
		}
		next := never
		if at, _, ok := r.timers.Peek(); ok {
			next = at
		}
		r.sleepUntil = next
		d := next.Sub(r.Now())
		if d > 0 {
			r.sl.arm(min(d, time.Hour))
		}
		r.tmu.Unlock()
		if d > 0 {
			r.sl.wait()
			continue
		}
		r.mu.Lock()
		r.inCallback.Store(true)
		r.drain(true)
		r.mu.Unlock()
	}
}

// StartActors creates n per-node mailboxes of the given capacity and starts
// one goroutine per node to drain them. Call once, before traffic flows.
func (r *Runtime) StartActors(n, mailbox int) {
	if r.mailboxes != nil {
		panic("realtime: StartActors called twice")
	}
	if mailbox < 1 {
		mailbox = 1
	}
	r.mailboxes = make([]chan func(), n)
	for i := range r.mailboxes {
		mb := make(chan func(), mailbox)
		r.mailboxes[i] = mb
		r.wg.Add(1)
		go r.actorLoop(mb)
	}
}

func (r *Runtime) actorLoop(mb chan func()) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case fn := <-mb:
			r.Exec(fn)
		}
	}
}

// Post enqueues fn on node's mailbox, reporting success. It never blocks: a
// full mailbox or a stopping runtime drops the item (counted; RCC
// retransmission recovers dropped control traffic, and data loss is the
// condition the protocol is built to survive).
func (r *Runtime) Post(node int, fn func()) bool {
	if r.stopped.Load() {
		r.dropped.Add(1)
		return false
	}
	select {
	case r.mailboxes[node] <- fn:
		return true
	default:
		r.dropped.Add(1)
		return false
	}
}

// Exec runs fn under the execution lock, serialized with every timer and
// actor callback, followed by a drain pass for the timers it leaves due. External goroutines (tests, cmd/bcplive) use it to touch
// protocol state safely. Never call it from inside a protocol callback.
func (r *Runtime) Exec(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inCallback.Store(true)
	fn()
	r.drain(false)
}

// Dropped returns how many mailbox posts were refused.
func (r *Runtime) Dropped() uint64 { return r.dropped.Load() }

// Stop shuts the runtime down: no further timers fire, actors drain nothing
// more, and all runtime goroutines have exited when it returns. Safe to call
// once, from outside any protocol callback. Pending mailbox items and timers
// are discarded.
func (r *Runtime) Stop() {
	if !r.stopped.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	r.tmu.Lock()
	// End the sleeper's wait; it sees stopped and exits. Publishing the
	// wake as its deadline keeps a callback still draining from re-arming
	// it later: arms only ever move the deadline earlier.
	r.sleepUntil = r.Now()
	r.sl.arm(0)
	r.tmu.Unlock()
	r.wg.Wait()
	r.tmu.Lock()
	r.sl.close()
	r.tmu.Unlock()
}
