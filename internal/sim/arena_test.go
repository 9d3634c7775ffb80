package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// TestMidHeapCancelShrinksQueue is the regression test for the lazy-cancel
// leak: cancelling a timer that is not at the heap top must remove it from
// the queue immediately, not leave a tombstone to be reaped at pop time.
func TestMidHeapCancelShrinksQueue(t *testing.T) {
	e := New(1)
	var timers []Timer
	for i := 1; i <= 100; i++ {
		timers = append(timers, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	if e.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", e.Pending())
	}
	// Cancel every other timer from the middle of the schedule — none of
	// these are the heap minimum.
	cancelled := 0
	for i := 10; i < 90; i += 2 {
		if !timers[i].Stop() {
			t.Fatalf("Stop on pending timer %d returned false", i)
		}
		cancelled++
	}
	if got, want := e.Pending(), 100-cancelled; got != want {
		t.Fatalf("pending after mid-heap cancels = %d, want %d", got, want)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	_ = fired
	if got := int(e.Processed()); got != 100-cancelled {
		t.Fatalf("processed = %d, want %d", got, 100-cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d", e.Pending())
	}
}

// TestSlotRecycling verifies the arena reuses freed slots instead of
// growing, and that handles to retired generations read as dead.
func TestSlotRecycling(t *testing.T) {
	e := New(1)
	first := e.Schedule(time.Millisecond, func() {})
	e.Step()
	if len(e.q.slots) != 1 {
		t.Fatalf("slots = %d, want 1", len(e.q.slots))
	}
	second := e.Schedule(time.Millisecond, func() {})
	if len(e.q.slots) != 1 {
		t.Fatalf("slot not recycled: slots = %d", len(e.q.slots))
	}
	if first.Active() {
		t.Fatal("fired handle reads active after slot reuse")
	}
	if !first.Fired() {
		t.Fatal("fired handle lost its outcome after slot reuse")
	}
	if !second.Active() {
		t.Fatal("fresh handle on recycled slot not active")
	}
	if second.Fired() {
		t.Fatal("pending handle on recycled slot reads fired")
	}
	if first.Stop() {
		t.Fatal("Stop through a stale handle cancelled the new generation")
	}
	if !second.Stop() {
		t.Fatal("fresh handle failed to stop")
	}
	if second.Fired() {
		t.Fatal("stopped handle reads fired")
	}
}

// TestZeroTimerInert pins the zero-value handle's behavior: protocol code
// stores Timer fields by value and relies on the zero value being inert.
func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
	if tm.Active() {
		t.Fatal("zero Timer is active")
	}
	if tm.Fired() {
		t.Fatal("zero Timer reads fired")
	}
	if tm.When() != 0 {
		t.Fatal("zero Timer has a deadline")
	}
}

// TestWhenSurvivesRecycling: When is stored on the handle, so it stays
// exact even after the arena slot is reused for a different deadline.
func TestWhenSurvivesRecycling(t *testing.T) {
	e := New(1)
	first := e.Schedule(3*time.Millisecond, func() {})
	e.Run()
	e.Schedule(9*time.Millisecond, func() {})
	if first.When() != Time(3*time.Millisecond) {
		t.Fatalf("When = %v after recycling, want 3ms", first.When())
	}
}

// TestSteadyStateSchedulingAllocFree is the alloc guard for the tentpole:
// once the arena and heap are warm, schedule+fire and schedule+cancel
// cycles must not allocate.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	e := New(1)
	fn := func() {}
	// Warm the arena to a realistic working-set size.
	var warm []Timer
	for i := 0; i < 64; i++ {
		warm = append(warm, e.Schedule(time.Duration(i+1)*time.Microsecond, fn))
	}
	for _, tm := range warm {
		tm.Stop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("schedule+fire allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a := e.Schedule(time.Microsecond, fn)
		b := e.Schedule(2*time.Microsecond, fn)
		c := e.Schedule(3*time.Microsecond, fn)
		b.Stop() // mid-heap cancel
		a.Stop()
		c.Stop()
	}); n != 0 {
		t.Fatalf("schedule+cancel allocates %v/op, want 0", n)
	}
	// Bulk insert with a reused handle slice: warm, then alloc-free. This is
	// the storm path — one component failure arming a round's worth of
	// rejoin timers in one call.
	fns := make([]func(), 16)
	for i := range fns {
		fns[i] = fn
	}
	handles := e.ScheduleBatch(time.Microsecond, fns, nil)
	for _, tm := range handles {
		tm.Stop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		handles = e.ScheduleBatch(time.Microsecond, fns, handles[:0])
		for _, tm := range handles {
			tm.Stop()
		}
	}); n != 0 {
		t.Fatalf("ScheduleBatch allocates %v/op, want 0", n)
	}
}

// TestScheduleBatchEquivalence drives a batch big enough to take the
// bottom-up heapify branch against a standing population and checks the
// firing order is exactly the sequential-schedule order: batch entries fire
// FIFO among themselves and interleave with the standing timers by
// deadline.
func TestScheduleBatchEquivalence(t *testing.T) {
	e := New(1)
	var got []int
	record := func(id int) func() { return func() { got = append(got, id) } }
	// Standing timers at 1ms, 3ms, 5ms.
	e.Schedule(1*time.Millisecond, record(1))
	e.Schedule(3*time.Millisecond, record(3))
	e.Schedule(5*time.Millisecond, record(5))
	// A batch of 12 at 4ms — k*4 >= n forces the heapify path.
	fns := make([]func(), 12)
	for i := range fns {
		fns[i] = record(100 + i)
	}
	handles := e.ScheduleBatch(4*time.Millisecond, fns, nil)
	if len(handles) != 12 {
		t.Fatalf("got %d handles, want 12", len(handles))
	}
	for _, h := range handles {
		if !h.Active() || h.When() != Time(4*time.Millisecond) {
			t.Fatalf("batch handle not pending at 4ms: active=%v when=%v", h.Active(), h.When())
		}
	}
	// Stop one mid-batch handle; the rest must be unaffected.
	handles[5].Stop()
	e.Run()
	want := []int{1, 3}
	for i := 0; i < 12; i++ {
		if i == 5 {
			continue
		}
		want = append(want, 100+i)
	}
	want = append(want, 5)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
}

// --- differential oracle ---------------------------------------------------

// oracleTimer and oracleHeap reimplement the seed's container/heap queue
// with lazy deletion, serving as the reference semantics.
type oracleTimer struct {
	at      Time
	seq     uint64
	id      int
	stopped bool
	fired   bool
	index   int
}

type oracleHeap []*oracleTimer

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	t := x.(*oracleTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

type oracleEngine struct {
	now    Time
	events oracleHeap
	seq    uint64
}

func (o *oracleEngine) schedule(at Time, id int) *oracleTimer {
	t := &oracleTimer{at: at, seq: o.seq, id: id}
	o.seq++
	heap.Push(&o.events, t)
	return t
}

// step pops the next live event, skipping stopped tombstones, and returns
// its id, or -1 when drained.
func (o *oracleEngine) step() int {
	for len(o.events) > 0 {
		t := heap.Pop(&o.events).(*oracleTimer)
		if t.stopped {
			continue
		}
		o.now = t.at
		t.fired = true
		return t.id
	}
	return -1
}

func (o *oracleEngine) livePending() int {
	n := 0
	for _, t := range o.events {
		if !t.stopped {
			n++
		}
	}
	return n
}

// TestDifferentialVsContainerHeap drives the indexed arena heap and a
// container/heap oracle through identical random schedule / cancel / fire
// sequences — with deliberately colliding deadlines so equal-deadline FIFO
// stability is exercised — and requires identical firing order, clock
// positions, and live queue lengths throughout.
func TestDifferentialVsContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(1)
		o := &oracleEngine{}

		type pair struct {
			subject Timer
			oracle  *oracleTimer
		}
		var live []pair
		nextID := 0

		var batchTimers []Timer // reused ScheduleBatch output
		var batchFns []func()

		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(12); {
			case r < 5: // schedule; coarse deadlines force ties
				at := e.Now().Add(time.Duration(rng.Intn(8)) * time.Millisecond)
				id := nextID
				nextID++
				st := e.At(at, func() {})
				ot := o.schedule(at, id)
				live = append(live, pair{st, ot})
			case r < 7: // bulk insert: must equal k sequential schedules
				d := time.Duration(rng.Intn(8)) * time.Millisecond
				k := 1 + rng.Intn(6)
				batchFns = batchFns[:0]
				for j := 0; j < k; j++ {
					batchFns = append(batchFns, func() {})
				}
				batchTimers = e.ScheduleBatch(d, batchFns, batchTimers[:0])
				at := e.Now().Add(d)
				for j := 0; j < k; j++ {
					id := nextID
					nextID++
					live = append(live, pair{batchTimers[j], o.schedule(at, id)})
				}
			case r < 10: // fire next
				var subjectFired bool
				if e.Pending() > 0 {
					subjectFired = true
					e.Step()
				}
				oid := o.step()
				if subjectFired != (oid >= 0) {
					t.Fatalf("seed %d op %d: subject fired=%v oracle id=%d", seed, op, subjectFired, oid)
				}
				if e.Now() != o.now && oid >= 0 {
					t.Fatalf("seed %d op %d: clocks diverged %v vs %v", seed, op, e.Now(), o.now)
				}
			default: // cancel a random live timer (often mid-heap)
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				p := live[i]
				gotStop := p.subject.Stop()
				wantStop := !p.oracle.stopped && !p.oracle.fired
				p.oracle.stopped = true
				if gotStop != wantStop {
					t.Fatalf("seed %d op %d: Stop = %v, oracle %v", seed, op, gotStop, wantStop)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if e.Pending() != o.livePending() {
				t.Fatalf("seed %d op %d: pending %d vs oracle %d", seed, op, e.Pending(), o.livePending())
			}
		}

		// Drain both and compare full firing order via clock at each step.
		for {
			var subjectFired bool
			if e.Pending() > 0 {
				subjectFired = true
				e.Step()
			}
			oid := o.step()
			if subjectFired != (oid >= 0) {
				t.Fatalf("seed %d drain: lengths diverged", seed)
			}
			if !subjectFired {
				break
			}
			if e.Now() != o.now {
				t.Fatalf("seed %d drain: clocks diverged %v vs %v", seed, e.Now(), o.now)
			}
		}
	}
}

// TestDifferentialFIFOOrder checks firing *identity* order, not just
// times: interleaved schedules at identical deadlines must fire in exact
// scheduling order even after unrelated cancellations reshuffle the heap.
func TestDifferentialFIFOOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New(1)
	var want, got []int
	var cancellable []Timer
	id := 0
	for round := 0; round < 50; round++ {
		at := e.Now().Add(time.Duration(rng.Intn(3)) * time.Millisecond)
		for j := 0; j < 4; j++ {
			myID := id
			id++
			e.At(at, func() { got = append(got, myID) })
			want = append(want, myID)
		}
		// Noise: schedule-and-cancel far-future timers to churn the heap.
		for j := 0; j < 3; j++ {
			cancellable = append(cancellable,
				e.Schedule(time.Duration(10+rng.Intn(50))*time.Millisecond, func() { t.Error("cancelled timer fired") }))
		}
		for _, tm := range cancellable {
			tm.Stop()
		}
		cancellable = cancellable[:0]
		e.Run()
	}
	// want is in scheduling order; within each equal-deadline batch the
	// engine must preserve it, and batches fire in time order. Since each
	// round runs to quiescence, global order equals scheduling order.
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverged at %d: got %v", i, got[i])
		}
	}
}

// BenchmarkTimerCancelMidHeap measures the O(log n) cancel path.
func BenchmarkTimerCancelMidHeap(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	// Keep a standing population so cancels are genuinely mid-heap.
	var standing []Timer
	for i := 0; i < 1024; i++ {
		standing = append(standing, e.Schedule(time.Duration(i+1)*time.Second, fn))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.Schedule(time.Duration(500+i%100)*time.Millisecond, fn)
		tm.Stop()
	}
	b.StopTimer()
	for _, tm := range standing {
		tm.Stop()
	}
}
