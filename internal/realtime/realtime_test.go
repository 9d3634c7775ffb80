package realtime

import (
	"math/rand"
	"net"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
)

// TestTimerFiresInOrder checks that timers armed out of order fire in
// deadline order, serialized on the execution lock.
func TestTimerFiresInOrder(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	add := func(v int) func() {
		return func() {
			mu.Lock()
			got = append(got, v)
			n := len(got)
			mu.Unlock()
			if n == 3 {
				close(done)
			}
		}
	}
	r.Schedule(30*time.Millisecond, add(3))
	r.Schedule(10*time.Millisecond, add(1))
	r.Schedule(20*time.Millisecond, add(2))

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers did not fire")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
}

// TestStopPreventsFire checks the sim contract: a Stop that returns true
// means the callback never runs, and the handle reads dead afterwards.
func TestStopPreventsFire(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var fired atomic.Bool
	tm := r.Schedule(50*time.Millisecond, func() { fired.Store(true) })
	if !tm.Active() {
		t.Fatal("pending timer should be active")
	}
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should return true")
	}
	if tm.Active() {
		t.Fatal("stopped timer should be inactive")
	}
	if tm.Stop() {
		t.Fatal("second Stop should be a no-op")
	}
	time.Sleep(120 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired anyway")
	}
	if tm.Fired() {
		t.Fatal("stopped timer reports Fired")
	}
}

// TestScheduleBatch checks the bulk-insert path on the wall clock: a batch
// fires in FIFO order among itself, interleaves with standing timers by
// deadline, honors Stop on individual handles, and wakes the timer
// goroutine when the batch introduces a new earliest deadline.
func TestScheduleBatch(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	const total = 14 // 12 surviving batch timers + 1 late + 1 standing
	add := func(v int) func() {
		return func() {
			mu.Lock()
			got = append(got, v)
			n := len(got)
			mu.Unlock()
			if n == total {
				close(done)
			}
		}
	}
	// A standing timer far out, so the batch at 20ms becomes the new
	// earliest deadline and must wake the sleeping timer goroutine.
	r.Schedule(60*time.Millisecond, add(999))
	fns := make([]func(), 13)
	for i := range fns {
		fns[i] = add(i)
	}
	handles := r.ScheduleBatch(20*time.Millisecond, fns, nil)
	if len(handles) != 13 {
		t.Fatalf("got %d handles, want 13", len(handles))
	}
	if !handles[7].Stop() {
		t.Fatal("Stop on a pending batch handle should return true")
	}
	r.Schedule(40*time.Millisecond, add(1000))

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch timers did not fire")
	}
	mu.Lock()
	defer mu.Unlock()
	want := make([]int, 0, total)
	for i := 0; i < 13; i++ {
		if i == 7 {
			continue
		}
		want = append(want, i)
	}
	want = append(want, 1000, 999)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestRearmFromCallback checks release-before-fire: a callback can re-arm a
// periodic timer, recycling its own arena slot, and the old handle is dead.
func TestRearmFromCallback(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var n atomic.Int32
	done := make(chan struct{})
	var tick func()
	tick = func() {
		if n.Add(1) < 5 {
			r.Schedule(5*time.Millisecond, tick)
		} else {
			close(done)
		}
	}
	tm := r.Schedule(5*time.Millisecond, tick)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("re-armed timer stalled at %d ticks", n.Load())
	}
	if !tm.Fired() {
		t.Fatal("first generation should report Fired")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired handle must not cancel a later generation")
	}
}

// TestActorsSerializeAndDrop checks that posts execute under the execution
// lock (no data race on the shared counter without it) and that a full
// mailbox drops rather than blocks.
func TestActorsSerializeAndDrop(t *testing.T) {
	r := New(1)
	defer r.Stop()
	r.StartActors(4, 64)

	var wg sync.WaitGroup
	counter := 0 // protected only by the runtime's execution lock
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if r.Post(node, func() { counter++ }) {
					accepted.Add(1)
				}
			}
		}(g % 4)
	}
	wg.Wait()

	// Drain: executed count must eventually equal accepted count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var c int
		r.Exec(func() { c = counter })
		if int64(c) == accepted.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("executed %d of %d accepted posts", c, accepted.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if accepted.Load()+int64(r.Dropped()) != 8*200 {
		t.Fatalf("accepted %d + dropped %d != 1600", accepted.Load(), r.Dropped())
	}
}

// TestStopIsCleanAndIdempotent checks that Stop returns with all runtime
// goroutines finished and that posting after Stop is a counted drop, not a
// panic.
func TestStopIsCleanAndIdempotent(t *testing.T) {
	r := New(1)
	r.StartActors(8, 16)
	for i := 0; i < 8; i++ {
		r.Post(i, func() {})
	}
	r.Schedule(time.Hour, func() { t.Error("distant timer fired during stop") })
	r.Stop()
	r.Stop() // idempotent
	if r.Post(0, func() { t.Error("post after Stop executed") }) {
		t.Fatal("Post after Stop should report failure")
	}
	time.Sleep(20 * time.Millisecond)
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:goruntime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestDueTimerRunsInlineBeforeUnlock checks inline dispatch: a due-now
// timer armed inside an actor callback runs on the arming goroutine before
// the execution lock is released, so the next mailbox item already sees it
// done; Exec likewise returns only after the due-now timers it armed ran.
func TestDueTimerRunsInlineBeforeUnlock(t *testing.T) {
	r := New(1)
	defer r.Stop()
	r.StartActors(1, 8)

	var armer, runner string
	ran, sawRan := false, false // touched only under the execution lock
	done := make(chan struct{})
	r.Post(0, func() {
		armer = goid()
		r.Schedule(0, func() {
			runner = goid()
			ran = true
		})
	})
	r.Post(0, func() {
		sawRan = ran
		close(done)
	})
	<-done
	r.Exec(func() {
		if !sawRan {
			t.Error("the next mailbox item ran before the due timer")
		}
		if runner != armer {
			t.Errorf("due timer ran on goroutine %s, armed on %s", runner, armer)
		}
	})

	var fired atomic.Bool
	r.Exec(func() { r.Schedule(0, func() { fired.Store(true) }) })
	if !fired.Load() {
		t.Fatal("Exec returned before the due timer it armed ran")
	}
}

// TestStopWithinDrainPass checks that popping one timer at a time keeps the
// Stop contract inside a pass: a due timer stopped by an earlier callback of
// the same drain pass never fires.
func TestStopWithinDrainPass(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var second sim.Timer
	stopped := false
	var fired atomic.Bool
	r.Exec(func() {
		r.Schedule(0, func() { stopped = second.Stop() })
		second = r.Schedule(0, func() { fired.Store(true) })
	})
	// Exec returned after its drain pass, so both timers have had their
	// turn: the first ran, and the second left the heap when it stopped it.
	r.Exec(func() {
		if !stopped {
			t.Error("Stop on a due timer later in the same pass returned false")
		}
	})
	if fired.Load() {
		t.Fatal("timer stopped by an earlier callback of its drain pass fired")
	}
}

// TestDrainPassIsBounded checks that timers armed during a drain pass wait
// for the next one: a callback that keeps re-arming itself at zero delay
// does not hold the execution lock forever, and the sleeper runs it on.
func TestDrainPassIsBounded(t *testing.T) {
	r := New(1)
	defer r.Stop()

	me := goid()
	ticks, mine, halt := 0, 0, false // under the execution lock
	var tick func()
	tick = func() {
		ticks++
		if goid() == me {
			mine++
		}
		if !halt {
			r.Schedule(0, tick)
		}
	}
	r.Exec(func() { r.Schedule(0, tick) })
	// Between the two Execs only the sleeper runs ticks, on its own
	// goroutine, so mine counts the first Exec's drain pass alone.
	var n int
	r.Exec(func() { n = mine })
	if n != 1 {
		t.Fatalf("one drain pass ran %d ticks, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		r.Exec(func() { n = ticks })
	}
	r.Exec(func() { halt = true })
	if n < 10 {
		t.Fatalf("re-armed timer stalled at %d ticks", n)
	}
}

// TestEarlierArmWakesSleeper checks that an earlier deadline wakes a
// sleeper sleeping toward a later one, whether it is armed outside any
// callback (the wake is immediate) or inside one (the wake is left to the
// callback's drain pass).
func TestEarlierArmWakesSleeper(t *testing.T) {
	r := New(1)
	defer r.Stop()

	r.Schedule(10*time.Second, func() {})
	for _, inside := range []bool{false, true} {
		time.Sleep(20 * time.Millisecond) // let the sleeper settle on 10 s
		start := time.Now()
		done := make(chan struct{})
		arm := func() { r.Schedule(5*time.Millisecond, func() { close(done) }) }
		if inside {
			r.Exec(arm)
		} else {
			arm()
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("earlier timer (armed inside a callback: %v) did not fire", inside)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("5ms timer (armed inside a callback: %v) fired after %v", inside, el)
		}
	}
}

// openFDs counts the process's open descriptors, or returns -1 where
// /proc is unavailable.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestStopWhileSleepingIsPromptAndLeakFree checks that Stop wakes a sleeper
// sleeping toward a distant deadline at once, and that the runtime leaves
// no goroutine or descriptor behind.
func TestStopWhileSleepingIsPromptAndLeakFree(t *testing.T) {
	goBefore, fdBefore := goruntime.NumGoroutine(), openFDs()
	r := New(1)
	r.StartActors(2, 4)
	r.Schedule(time.Hour, func() { t.Error("distant timer fired") })
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	r.Stop()
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Stop took %v", el)
	}
	if fd := openFDs(); fd != fdBefore {
		t.Fatalf("open descriptors %d after Stop, %d before New", fd, fdBefore)
	}
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > goBefore {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before New", goruntime.NumGoroutine(), goBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubMillisecondTimerLateness is the lateness regression: 200 chained
// timers at 100–900 µs, armed from inside callbacks the way RCC arms its
// eligibility waits, with a UDP socket open so the netpoller is live. A
// sleeper on Go timers rounds each sleep up to about a millisecond (p50
// lateness near 800 µs); the precise sleeper must keep p50 under 300 µs.
func TestSubMillisecondTimerLateness(t *testing.T) {
	if goruntime.GOOS != "linux" {
		t.Skip("the precise sleeper is Linux-only")
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback UDP:", err)
	}
	defer conn.Close()
	r := New(1)
	defer r.Stop()

	const n = 200
	rng := rand.New(rand.NewSource(1))
	late := make([]time.Duration, 0, n)
	done := make(chan struct{})
	var arm func()
	arm = func() {
		at := r.Now().Add(time.Duration(100+rng.Intn(801)) * time.Microsecond)
		r.At(at, func() {
			late = append(late, r.Now().Sub(at))
			if len(late) == n {
				close(done)
				return
			}
			arm()
		})
	}
	r.Exec(arm)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timer chain stalled")
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	p50, p95 := late[n/2], late[n*95/100]
	t.Logf("lateness p50 %v p95 %v", p50, p95)
	if p50 > 300*time.Microsecond {
		t.Fatalf("timer lateness p50 %v, want under 300µs", p50)
	}
}

// recordingSleeper is a sleeper that records every arm. wait returns once
// per arm made since the last wait.
type recordingSleeper struct {
	mu   sync.Mutex
	arms []time.Duration
	wake chan struct{}
}

func (s *recordingSleeper) arm(d time.Duration) {
	s.mu.Lock()
	s.arms = append(s.arms, d)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *recordingSleeper) wait() { <-s.wake }

func (s *recordingSleeper) close() {}

func (s *recordingSleeper) armed() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.arms...)
}

// TestStopWakeIsNotPushedBack checks that a callback still draining when
// Stop runs cannot re-arm the sleeper to a later deadline: the timerfd
// sleeper forgets a pending expiry when re-armed, so such an arm would
// leave the timer goroutine asleep and Stop waiting for it.
func TestStopWakeIsNotPushedBack(t *testing.T) {
	sl := &recordingSleeper{wake: make(chan struct{}, 1)}
	r := newRuntime(1, sl)
	r.StartActors(1, 1)

	in, release := make(chan struct{}), make(chan struct{})
	r.Post(0, func() {
		close(in)
		<-release
	})
	<-in
	// Armed while the actor runs a callback, so re-arming the sleeper is
	// left to that callback's drain pass.
	r.Schedule(time.Hour, func() {})
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	for {
		a := sl.armed()
		if len(a) > 0 && a[len(a)-1] <= 0 {
			break // Stop's wake
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	a := sl.armed()
	for i := len(a) - 1; i >= 0 && a[i] > 0; i-- {
		t.Fatalf("sleeper re-armed to %v after Stop's wake (arms %v)", a[i], a)
	}
}
