// Package resident runs jobs on resident goroutines: a goroutine that has
// finished a job parks, and the next job goes to the one that parked last,
// whose stack has already grown to what the jobs need. Only a job that
// finds nobody parked starts a new goroutine, so the goroutines in use are
// as few as the jobs in flight and a slow job delays no one.
//
// The TCP endpoint runs its request handlers on a pool, the p2p node its
// fan-out legs.
package resident

import "sync"

// Job is one unit of work for a pool. Run does the work on a pooled
// goroutine; Done reports it finished and runs only after that goroutine
// has parked (or decided to exit), so whoever Done releases — a waiter on
// a WaitGroup, a taker of a freed semaphore slot — finds it parked.
type Job interface {
	Run()
	Done()
}

// Pool is a stack of parked goroutines running jobs of type J. Its zero
// value is not usable; call New.
type Pool[J Job] struct {
	maxParked int

	mu                    sync.Mutex
	parked                []chan J // one-slot channels, the last parked on top
	closed                bool     // a finishing goroutine exits and Go runs on the caller
	handed, started, live int64    // see Stats

	wg sync.WaitGroup
}

// New returns a pool that keeps at most maxParked goroutines parked
// between jobs; a goroutine that finishes while that many are parked
// exits instead.
func New[J Job](maxParked int) *Pool[J] {
	return &Pool[J]{maxParked: maxParked}
}

// Go hands j to the goroutine that parked last, or starts one when none is
// parked. After Close it runs j, then its Done, on the caller.
func (p *Pool[J]) Go(j J) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		j.Run()
		j.Done()
		return
	}
	p.handed++
	if n := len(p.parked); n > 0 {
		w := p.parked[n-1]
		p.parked = p.parked[:n-1]
		p.mu.Unlock()
		w <- j // one-slot buffer, and a parked goroutine's is empty
		return
	}
	p.started++
	p.live++
	p.wg.Add(1) // under mu, so never concurrent with Close's Wait
	p.mu.Unlock()
	go p.loop(make(chan J, 1), j)
}

// loop is one resident goroutine: run a job, park, wait for the next. It
// parks before it calls Done, so the job that follows finds it.
func (p *Pool[J]) loop(jobs chan J, j J) {
	defer func() {
		p.mu.Lock()
		p.live--
		p.mu.Unlock()
		p.wg.Done()
	}()
	for {
		j.Run()
		p.mu.Lock()
		park := !p.closed && len(p.parked) < p.maxParked
		if park {
			p.parked = append(p.parked, jobs)
		}
		p.mu.Unlock()
		j.Done()
		if !park {
			return
		}
		var ok bool
		if j, ok = <-jobs; !ok {
			return
		}
	}
}

// RetireParked ends every parked goroutine; the busy ones park again when
// they finish.
func (p *Pool[J]) RetireParked() {
	p.mu.Lock()
	parked := p.parked
	p.parked = nil
	p.mu.Unlock()
	for _, w := range parked {
		close(w)
	}
}

// Close retires the parked goroutines, then waits for the busy ones to
// finish their jobs and exit. Later jobs run on their callers. Idempotent.
func (p *Pool[J]) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.RetireParked()
	p.wg.Wait()
}

// Stats is a snapshot of a pool's counters.
type Stats struct {
	Handed  int64 // jobs handed to a pooled goroutine, parked or new
	Started int64 // goroutines started
	Parked  int   // goroutines parked now
	Live    int64 // goroutines started and not yet exited
}

// Stats reports the pool's counters.
func (p *Pool[J]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Handed: p.handed, Started: p.started, Parked: len(p.parked), Live: p.live}
}
