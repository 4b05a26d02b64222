//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps a load-generator goroutine until a request's due time. It
// waits on a timerfd through the runtime's network poller: the goroutine
// parks and frees its P, so the server keeps both cores while the
// generator waits, and it wakes within tens of microseconds. A runtime
// timer (time.Sleep) wakes sub-millisecond sleeps up to a millisecond
// late, and a nanosleep syscall keeps its P, starving the server until
// sysmon retakes it.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "pacer")}, nil
}

// sleepUntil returns at t or, if t has passed, at once.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) Close() error { return p.f.Close() }
