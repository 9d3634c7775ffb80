package sim

// TimerHeap is the timer arena both executives are built on: an index-based
// 4-ary min-heap over pooled, generation-stamped slots, ordered by
// (deadline, arming order) so equal deadlines fire FIFO. Handles name a slot
// and the generation it carried when armed; retiring a slot (fire or stop)
// bumps the generation, so stale handles read as dead. Cancellation unlinks
// the slot in O(log n) through its stored heap position, and freed slots are
// recycled through a free list, so steady-state arming performs zero
// allocations.
//
// A TimerHeap is not safe for concurrent use; its host serializes access
// (Engine by being single-threaded, realtime.Runtime under its timer lock).
// The zero value is an empty heap.
type TimerHeap struct {
	slots []timerSlot
	free  []int32 // recycled arena slots
	heap  []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)
	seq   uint64
}

// timerSlot is one arena entry. gen is bumped every time the slot is
// released (fire or stop), invalidating all outstanding handles to the
// retired generation; prevFired records how that generation ended so a
// just-retired handle can still answer Fired exactly.
type timerSlot struct {
	at        Time
	seq       uint64
	fn        func()
	gen       uint32
	pos       int32 // index in TimerHeap.heap; -1 when not queued
	prevFired bool
}

// Len returns the number of pending timers. Stopped timers leave the heap
// immediately, so the count is exact.
func (h *TimerHeap) Len() int { return len(h.heap) }

// Seq returns the arming sequence number the next timer will carry. Timers
// armed from now on compare greater than every timer already pending.
func (h *TimerHeap) Seq() uint64 { return h.seq }

// Peek returns the earliest pending deadline and its arming sequence number;
// ok is false when the heap is empty.
func (h *TimerHeap) Peek() (at Time, seq uint64, ok bool) {
	if len(h.heap) == 0 {
		return 0, 0, false
	}
	s := &h.slots[h.heap[0]]
	return s.at, s.seq, true
}

// alloc takes a slot from the free list (or grows the arena) and stamps it
// with t, fn and the next sequence number, appending it to the heap array
// without restoring order.
func (h *TimerHeap) alloc(t Time, fn func()) int32 {
	if fn == nil {
		panic("sim: nil event function")
	}
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		h.slots = append(h.slots, timerSlot{})
		idx = int32(len(h.slots) - 1)
	}
	s := &h.slots[idx]
	s.at = t
	s.seq = h.seq
	s.fn = fn
	h.seq++
	s.pos = int32(len(h.heap))
	h.heap = append(h.heap, idx)
	return idx
}

// Push arms fn at t and returns a handle issued by host, the TimerHost that
// owns this heap.
func (h *TimerHeap) Push(host TimerHost, t Time, fn func()) Timer {
	idx := h.alloc(t, fn)
	s := &h.slots[idx]
	h.siftUp(int(s.pos))
	return Timer{host: host, idx: idx, gen: s.gen, at: t}
}

// PushBatch arms every function in fns at t, appending one handle issued by
// host per function to out and returning it. The result is exactly that of
// len(fns) sequential Push calls — same deadlines, same FIFO order among the
// batch and against everything already pending — but the heap is restored
// once: small batches sift each new slot up individually, while a batch that
// rivals the standing population re-heapifies bottom-up in O(n).
func (h *TimerHeap) PushBatch(host TimerHost, t Time, fns []func(), out []Timer) []Timer {
	start := len(h.heap)
	for _, fn := range fns {
		idx := h.alloc(t, fn)
		out = append(out, Timer{host: host, idx: idx, gen: h.slots[idx].gen, at: t})
	}
	h.restoreSuffix(start)
	return out
}

// Pop removes the earliest pending timer and returns its deadline and
// callback. The slot is released before the caller runs the callback, so
// the callback may re-arm into the same slot and any handle to the fired
// generation already reads as dead. Pop panics on an empty heap.
func (h *TimerHeap) Pop() (Time, func()) {
	idx := h.heap[0]
	s := &h.slots[idx]
	at, fn := s.at, s.fn
	h.removeAt(0)
	h.release(idx, true)
	return at, fn
}

// Stop cancels the (idx, gen) slot if that generation is still pending,
// unlinking it from the heap in O(log n). It reports whether the
// cancellation prevented the fire.
func (h *TimerHeap) Stop(idx int32, gen uint32) bool {
	s := &h.slots[idx]
	if s.gen != gen {
		return false // already fired or stopped
	}
	h.removeAt(int(s.pos))
	h.release(idx, false)
	return true
}

// Active reports whether the (idx, gen) slot is still pending.
func (h *TimerHeap) Active(idx int32, gen uint32) bool {
	return h.slots[idx].gen == gen
}

// Fired reports how the (idx, gen) slot's generation ended; exact until the
// slot is reused a second time.
func (h *TimerHeap) Fired(idx int32, gen uint32) bool {
	s := &h.slots[idx]
	if s.gen == gen {
		return false // still pending
	}
	return s.prevFired
}

// restoreSuffix restores the heap property after new entries were appended
// at positions [start, len). Per-item sift-up costs O(k log n); when the
// batch rivals the standing population a bottom-up heapify is O(n) total
// and wins. Either strategy yields the same (at, seq) firing order.
func (h *TimerHeap) restoreSuffix(start int) {
	n := len(h.heap)
	k := n - start
	if k == 0 {
		return
	}
	if k*4 < n || n < 8 {
		for i := start; i < n; i++ {
			h.siftUp(i)
		}
		return
	}
	for i := (n - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}

// release retires slot idx's current generation (recording how it ended)
// and returns the slot to the free list.
func (h *TimerHeap) release(idx int32, fired bool) {
	s := &h.slots[idx]
	s.fn = nil
	s.pos = -1
	s.prevFired = fired
	s.gen++
	h.free = append(h.free, idx)
}

// less orders heap entries by firing time, then arming order (FIFO for
// equal deadlines).
func (h *TimerHeap) less(a, b int32) bool {
	sa, sb := &h.slots[a], &h.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// siftUp restores the heap property from position i toward the root,
// keeping each slot's stored heap position current.
func (h *TimerHeap) siftUp(i int) {
	item := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h.heap[parent]
		if !h.less(item, p) {
			break
		}
		h.heap[i] = p
		h.slots[p].pos = int32(i)
		i = parent
	}
	h.heap[i] = item
	h.slots[item].pos = int32(i)
}

// siftDown restores the heap property from position i toward the leaves.
func (h *TimerHeap) siftDown(i int) {
	n := len(h.heap)
	item := h.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(h.heap[c], h.heap[best]) {
				best = c
			}
		}
		if !h.less(h.heap[best], item) {
			break
		}
		h.heap[i] = h.heap[best]
		h.slots[h.heap[i]].pos = int32(i)
		i = best
	}
	h.heap[i] = item
	h.slots[item].pos = int32(i)
}

// removeAt unlinks the heap entry at position i in O(log n).
func (h *TimerHeap) removeAt(i int) {
	n := len(h.heap) - 1
	last := h.heap[n]
	h.heap = h.heap[:n]
	if i == n {
		return
	}
	h.heap[i] = last
	h.slots[last].pos = int32(i)
	// The moved entry may need to travel either direction.
	h.siftDown(i)
	h.siftUp(int(h.slots[last].pos))
}
