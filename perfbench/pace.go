package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the generator at each tick's due time. It reads a periodic
// Linux timerfd through the runtime's network poller: the wait holds no P
// (a goroutine blocked in nanosleep would hold one of the two, starving the
// cluster), and unlike the runtime timer behind time.Sleep, whose idle wait
// rounds up to the poller's millisecond timeout, it fires on time.
type pacer struct {
	// fd is the timerfd; f wraps it for poller reads. fd is kept apart
	// because f.Fd() would switch the descriptor back to blocking mode.
	fd uintptr
	f  *os.File
}

const clockMonotonic = 1

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// start arms the timer to fire at first and every period after it.
func (p *pacer) start(first time.Time, period time.Duration) error {
	rel := time.Until(first)
	if rel <= 0 {
		rel = time.Microsecond
	}
	return p.set(period, rel)
}

// stop disarms the timer.
func (p *pacer) stop() error { return p.set(0, 0) }

func (p *pacer) set(interval, value time.Duration) error {
	// struct itimerspec { it_interval, it_value }, each { tv_sec, tv_nsec }.
	spec := [4]int64{
		int64(interval / time.Second), int64(interval % time.Second),
		int64(value / time.Second), int64(value % time.Second),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	return nil
}

// waitUntil blocks until due. Each read consumes every expiry so far, so a
// read can return for a tick already past; it reads again until due.
func (p *pacer) waitUntil(due time.Time) error {
	var buf [8]byte
	for time.Now().Before(due) {
		if _, err := p.f.Read(buf[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
