package realtime

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdSleeper sleeps on a Linux timerfd (CLOCK_MONOTONIC, the clock Go's
// monotonic time reads) registered with the Go netpoller. The kernel fires
// a timerfd at its deadline with no timer slack, and its expiry is a
// readiness event, which wakes the netpoller at once — unlike a Go timer,
// whose sleep the netpoller rounds up to a millisecond. Blocking in the
// netpoller also parks the timer goroutine without holding a P, so the
// actors keep every P while it waits. arm is timerfd_settime from the
// arming goroutine: moving the deadline earlier needs no hand-off, and an
// expiry that lands before wait is called stays readable until read.
type timerfdSleeper struct {
	f      *os.File
	fd     uintptr // f's descriptor; f.Fd() would switch it to blocking mode
	closed bool    // under the runtime's tmu, like arm and close
	buf    [8]byte // expiry count; timer goroutine only
}

// itimerspec is struct itimerspec: no interval, one deadline.
type itimerspec struct{ interval, value syscall.Timespec }

// clockMonotonic is CLOCK_MONOTONIC, which package syscall does not export.
const clockMonotonic = 1

// newSleeper returns the timerfd sleeper, or the Go-timer sleeper if the
// kernel refuses a timerfd.
func newSleeper() sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSleeper()
	}
	return &timerfdSleeper{f: os.NewFile(fd, "realtime-timerfd"), fd: fd}
}

func (s *timerfdSleeper) arm(d time.Duration) {
	if s.closed {
		return
	}
	if d < 1 {
		d = 1 // a zero deadline would disarm the timer
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// The descriptor is open (closed is false) and the deadline positive,
	// so only a bug can make the kernel refuse it.
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("realtime: timerfd_settime: " + errno.Error())
	}
}

// wait reads the expiry count. The read fails only once Stop has closed
// the file, and the timer loop checks for Stop before it waits again.
func (s *timerfdSleeper) wait() { _, _ = s.f.Read(s.buf[:]) }

func (s *timerfdSleeper) close() {
	if !s.closed {
		s.closed = true
		s.f.Close()
	}
}
