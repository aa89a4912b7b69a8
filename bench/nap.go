package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// napper sleeps until an instant with the precision of a kernel timer.
//
// Neither of the obvious ways works for a 1 ms schedule inside the
// process under test. time.Sleep wakes an idle Go process at millisecond
// granularity, a whole period late. A raw nanosleep is precise, but a
// goroutine in a raw blocking syscall keeps its scheduler slot until
// sysmon takes it back, up to 10 ms later, and with two cores that
// starves the server's goroutines. A timerfd read through an os.File
// parks the goroutine in the netpoller instead: the slot is free at
// once and the wake-up is the timer's.
type napper struct {
	f  *os.File
	fd int
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

func newNapper() (*napper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// netpoller.
	return &napper{f: os.NewFile(fd, "timerfd"), fd: int(fd)}, nil
}

// until returns at t, or at once if t has passed.
func (n *napper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}: one shot after d.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(n.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := n.f.Read(expirations[:])
	return err
}

func (n *napper) close() { n.f.Close() }
