package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a small VM whose CPUs take up to a millisecond to
// wake from idle. A closed loop over loopback sockets idles a CPU at every
// round trip, so that wake-up, not the program, set and unsettled every
// sub-millisecond latency: on kv-lan the get p50 read 0.10 ms ± 25 % between
// runs of one commit, and 0.07 ms ± 5 % with the CPUs kept awake. So while a
// run lasts, one spinner process per CPU runs at the lowest scheduling
// priority there is: it gets only cycles nobody else wants and is preempted
// the moment anything else is runnable, but the CPU never halts — what
// booting the kernel with idle=poll would do. It is a process of its own, not
// a goroutine, so that the program's scheduler never sees it.

// spinFlag makes the program one spinner; spinLimit bounds its life whatever
// happens to its parent (the driver allows a run 180 s).
const (
	spinFlag  = "--keep-awake-spinner"
	spinLimit = 175 * time.Second
)

// spin is the spinner process: it lowers its own priority and burns idle
// cycles until it is killed, its parent dies, or spinLimit passes.
func spin() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// No SCHED_IDLE here: the weakest nice level is the next best.
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: spinner cannot lower its priority:", err)
			os.Exit(1)
		}
	}
	parent := os.Getppid()
	for start := time.Now(); time.Since(start) < spinLimit && os.Getppid() == parent; {
		for i := 0; i < 1<<20; i++ {
			runtime.KeepAlive(i)
		}
	}
}

// keepAwake starts one spinner per CPU and returns the function that kills
// them and waits until each has ended.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("keep awake: %w", err)
	}
	var spinners []*exec.Cmd
	stop = func() {
		for _, c := range spinners {
			_ = c.Process.Kill()
			_ = c.Wait() // "signal: killed" is the expected end
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, spinFlag)
		c.Env = append(os.Environ(), "GOMAXPROCS=1")
		c.Stderr = os.Stderr
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("keep awake: %w", err)
		}
		spinners = append(spinners, c)
	}
	// A spinner runs at normal priority until it has lowered it.
	time.Sleep(100 * time.Millisecond)
	return stop, nil
}
