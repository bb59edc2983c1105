package main

import (
	"runtime"
	"syscall"
	"time"
)

// Pacing open-loop sends. time.Sleep wakes an idle Go runtime through its
// netpoller, whose timeout has millisecond resolution: measured on a 2-core
// Linux VM, sleeps ran 0.5 ms late at the median. A generator instead locks
// its goroutine to a thread, drops that thread's timer slack to 1 µs and
// sleeps in nanosleep, which wakes within tens of microseconds; how late it
// still runs is reported as driver.late_p99_us.

const (
	prSetTimerSlack = 29 // PR_SET_TIMERSLACK
	prGetTimerSlack = 30 // PR_GET_TIMERSLACK
)

// pacer owns the locked thread of one open-loop generator.
type pacer struct{ slack uintptr }

func newPacer() *pacer {
	runtime.LockOSThread()
	slack, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return &pacer{slack: slack}
}

// close restores the thread's timer slack and unlocks it.
func (p *pacer) close() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, p.slack, 0)
	runtime.UnlockOSThread()
}

// sleepUntil blocks the thread until t.
func (p *pacer) sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}
