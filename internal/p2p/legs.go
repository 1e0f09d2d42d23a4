package p2p

import "sync"

// maxParkedLegs bounds the leg goroutines a node keeps parked between
// fan-outs. A leg that finishes while this many are already parked exits
// instead, so a burst of concurrent fan-outs leaves at most this many
// idle goroutines behind.
const maxParkedLegs = 64

// legJob is one leg of a fan-out: run(i), then wg.Done.
type legJob struct {
	run func(int)
	i   int
	wg  *sync.WaitGroup
}

func (j legJob) Run()  { j.run(j.i) }
func (j legJob) Done() { j.wg.Done() }

// parallel runs leg(0) … leg(k-1) concurrently and returns once every one
// has returned. The last runs on the caller's goroutine, whose stack has
// already grown, and the others on the node's resident leg pool (the
// TCP endpoint's handler workers run on the same kind of pool). So a
// fan-out to one target starts nothing, and sequential fan-outs to k
// targets keep k-1 goroutines, stacks grown, for the next one. Close
// retires the pool; after it every leg runs on the caller, one by one.
func (n *Node) parallel(k int, leg func(i int)) {
	if k <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for i := 0; i < k-1; i++ {
		n.legs.Go(legJob{run: leg, i: i, wg: &wg})
	}
	leg(k - 1)
	wg.Wait()
}
