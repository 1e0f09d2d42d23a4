package resident

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// job runs fn on its goroutine, then Done calls done.
type job struct {
	fn   func()
	done func()
}

func (j job) Run()  { j.fn() }
func (j job) Done() { j.done() }

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// blocked holds n jobs on n pool goroutines at once and returns the ids of
// those goroutines and one release channel per job. finished receives a
// job's index from its Done.
func blocked(t *testing.T, p *Pool[job], n int, finished chan<- int) ([]uint64, []chan struct{}) {
	t.Helper()
	ids := make([]uint64, n)
	release := make([]chan struct{}, n)
	var entered sync.WaitGroup
	entered.Add(n)
	for i := 0; i < n; i++ {
		release[i] = make(chan struct{})
		p.Go(job{
			fn:   func() { ids[i] = goid(); entered.Done(); <-release[i] },
			done: func() { finished <- i },
		})
	}
	entered.Wait()
	return ids, release
}

// TestPoolHandsToLastParked: the next job runs on the goroutine that
// parked last, and starts none.
func TestPoolHandsToLastParked(t *testing.T) {
	p := New[job](8)
	defer p.Close()
	finished := make(chan int, 3)
	ids, release := blocked(t, p, 3, finished)
	for _, i := range []int{1, 2, 0} {
		close(release[i])
		<-finished
	}
	var ran uint64
	done := make(chan struct{})
	p.Go(job{fn: func() { ran = goid() }, done: func() { close(done) }})
	<-done
	if ran != ids[0] {
		t.Errorf("the job ran on goroutine %d, want %d, the one that parked last (others %v)", ran, ids[0], ids)
	}
	if s := p.Stats(); s.Started != 3 || s.Handed != 4 {
		t.Errorf("stats %+v, want 3 started and 4 handed", s)
	}
}

// TestPoolParkedCap: of the goroutines a burst needed, at most maxParked
// stay parked; the rest exit.
func TestPoolParkedCap(t *testing.T) {
	const maxParked, burst = 2, 6
	p := New[job](maxParked)
	defer p.Close()
	finished := make(chan int, burst)
	_, release := blocked(t, p, burst, finished)
	for _, r := range release {
		close(r)
	}
	for range release {
		<-finished
	}
	waitFor(t, "the goroutines past the cap to exit", func() bool { return p.Stats().Live == maxParked })
	if s := p.Stats(); s.Parked != maxParked || s.Started != burst {
		t.Errorf("stats %+v, want %d parked of %d started", s, maxParked, burst)
	}
}

// TestPoolDoneAfterPark: a job's Done finds its goroutine parked, so
// sequential jobs — each handed off once the one before is done — all
// run on the first goroutine.
func TestPoolDoneAfterPark(t *testing.T) {
	p := New[job](8)
	defer p.Close()
	var first uint64
	for i := 0; i < 1000; i++ {
		var ran uint64
		var parked int
		done := make(chan struct{})
		p.Go(job{fn: func() { ran = goid() }, done: func() { parked = p.Stats().Parked; close(done) }})
		<-done
		if i == 0 {
			first = ran
		}
		if parked != 1 || ran != first {
			t.Fatalf("job %d ran on goroutine %d (first %d) and saw %d parked at Done, want 1", i, ran, first, parked)
		}
	}
	if s := p.Stats(); s.Started != 1 {
		t.Errorf("1000 sequential jobs started %d goroutines, want 1", s.Started)
	}
}

// TestPoolRetireParked: RetireParked ends the parked goroutines, a busy
// one parks again when it finishes, and the next job starts a new one.
func TestPoolRetireParked(t *testing.T) {
	p := New[job](8)
	defer p.Close()
	finished := make(chan int, 3)
	_, release := blocked(t, p, 3, finished)
	close(release[0])
	close(release[1])
	<-finished
	<-finished
	p.RetireParked()
	waitFor(t, "the parked goroutines to exit", func() bool { return p.Stats().Live == 1 })
	close(release[2])
	<-finished
	if s := p.Stats(); s.Parked != 1 {
		t.Errorf("the busy goroutine did not park again after RetireParked: %+v", s)
	}
	p.RetireParked()
	waitFor(t, "the last parked goroutine to exit", func() bool { return p.Stats().Live == 0 })
	done := make(chan struct{})
	p.Go(job{fn: func() {}, done: func() { close(done) }})
	<-done
	if s := p.Stats(); s.Started != 4 || s.Live != 1 {
		t.Errorf("a job after RetireParked: stats %+v, want a fourth goroutine started", s)
	}
}

// TestPoolClose: Close waits for the busy job and leaves no goroutine;
// a job after Close runs, then its Done, on the caller before Go returns.
func TestPoolClose(t *testing.T) {
	p := New[job](8)
	finished := make(chan int, 2)
	_, release := blocked(t, p, 2, finished)
	close(release[0])
	<-finished
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a job still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release[1])
	<-finished
	<-closed
	if s := p.Stats(); s.Live != 0 || s.Parked != 0 {
		t.Errorf("after Close: stats %+v, want no goroutine left", s)
	}
	caller := goid()
	var ran uint64
	var done bool
	p.Go(job{fn: func() { ran = goid() }, done: func() { done = true }})
	if ran != caller || !done {
		t.Errorf("a job after Close ran on goroutine %d (caller %d), done %v", ran, caller, done)
	}
	if s := p.Stats(); s.Started != 2 || s.Handed != 2 {
		t.Errorf("a job after Close moved the counters: %+v", s)
	}
	p.Close() // idempotent
}
