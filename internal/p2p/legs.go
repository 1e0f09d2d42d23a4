package p2p

import (
	"sync"
	"sync/atomic"
)

// maxParkedLegs bounds the leg goroutines a node keeps parked between
// fan-outs. A leg that finishes while this many are already parked exits
// instead, so a burst of concurrent fan-outs leaves at most this many
// idle goroutines behind.
const maxParkedLegs = 64

// legs are a node's resident fan-out goroutines, the client-side twin of
// the TCP endpoint's resident handler workers. A fan-out runs its last
// leg on the caller's own goroutine, whose stack has already grown, and
// hands every other leg to the leg goroutine that parked last; only a
// hand-off that finds none parked starts a new one. So a fan-out to one
// target starts nothing, and sequential fan-outs to k targets keep k-1
// goroutines, stacks grown, for the next one. The node owns them: Close
// retires the parked ones and waits for the busy ones to finish.
type legs struct {
	mu      sync.Mutex
	parked  []chan legJob
	retired bool // Close has run: hand-offs fail and a finishing leg exits
	wg      sync.WaitGroup
	// For tests: jobs handed off, leg goroutines started and still running.
	handed, started, live atomic.Int64
}

// legJob is one leg of a fan-out: run(i), then wg.Done.
type legJob struct {
	run func(int)
	i   int
	wg  *sync.WaitGroup
}

// parallel runs leg(0) … leg(k-1) concurrently and returns once every one
// has returned. The last runs on the caller's goroutine, the others on
// resident legs; after Close they all run on the caller's, one by one.
func (n *Node) parallel(k int, leg func(i int)) {
	if k <= 0 {
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < k-1; i++ {
		wg.Add(1)
		if !n.legs.handOff(legJob{run: leg, i: i, wg: &wg}) {
			leg(i)
			wg.Done()
		}
	}
	leg(k - 1)
	wg.Wait()
}

// handOff gives j to the leg that parked last, or to a new one when none
// is parked. It reports false, running nothing, once the legs are retired.
func (l *legs) handOff(j legJob) bool {
	l.mu.Lock()
	if l.retired {
		l.mu.Unlock()
		return false
	}
	l.handed.Add(1)
	if n := len(l.parked); n > 0 {
		w := l.parked[n-1]
		l.parked = l.parked[:n-1]
		l.mu.Unlock()
		w <- j // one-slot buffer, and a parked leg's is empty
		return true
	}
	l.wg.Add(1) // under mu, so never concurrent with close's Wait
	l.mu.Unlock()
	l.started.Add(1)
	l.live.Add(1)
	go l.loop(make(chan legJob, 1), j)
	return true
}

// loop is one resident leg: run a job, park, wait for the next. It parks
// before it reports the job done, so the fan-out that follows finds it.
func (l *legs) loop(jobs chan legJob, j legJob) {
	defer l.wg.Done()
	defer l.live.Add(-1)
	for {
		j.run(j.i)
		l.mu.Lock()
		park := !l.retired && len(l.parked) < maxParkedLegs
		if park {
			l.parked = append(l.parked, jobs)
		}
		l.mu.Unlock()
		j.wg.Done()
		if !park {
			return
		}
		var ok bool
		if j, ok = <-jobs; !ok {
			return
		}
	}
}

// close retires the parked legs and waits for the busy ones to finish
// their jobs and exit. Idempotent.
func (l *legs) close() {
	l.mu.Lock()
	parked := l.parked
	l.parked = nil
	l.retired = true
	l.mu.Unlock()
	for _, w := range parked {
		close(w)
	}
	l.wg.Wait()
}
