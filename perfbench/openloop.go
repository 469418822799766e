package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timetable is an open loop's clock. Every event has a due time fixed in
// advance as an offset from the start, and everything about the event is
// timed from that due time, never from when it was actually sent: a
// generator that falls behind shows as lateness, and a router that
// stalls shows as latency on every event due during the stall.
type timetable struct {
	t0  time.Time
	now func() time.Time
}

func newTimetable(now func() time.Time) *timetable { return &timetable{t0: now(), now: now} }

// at is the current offset from the start.
func (t *timetable) at() time.Duration { return t.now().Sub(t.t0) }

// since is the time in ms from due until now: the lateness of an event
// due at due that is being sent now, or the latency of one completing now.
func (t *timetable) since(due time.Duration) float64 {
	return float64(t.at()-due) / float64(time.Millisecond)
}

// sleeper sleeps on a kernel timer (a Linux timerfd) read through the
// runtime's network poller. time.Sleep is not precise enough here: the
// runtime fires timers late by up to a millisecond when its processors
// are idle (the poller waits in whole milliseconds) or busy in a loop
// that never reaches the scheduler, like the forwarding worker, which
// would add up to a millisecond, at random, to every due time and every
// visibility time. Parked on the timerfd, the goroutine holds no
// processor, and the poller wakes it when the kernel timer fires.
type sleeper struct {
	fd int
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor becomes a pollable File. Its Fd method
	// would switch it to blocking, so the raw descriptor is kept apart.
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits for d (at least a microsecond: a zero timer never fires).
func (s *sleeper) sleep(d time.Duration) error {
	d = max(d, time.Microsecond)
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // itimerspec: no interval, one expiry
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
