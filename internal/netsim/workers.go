package netsim

import (
	"runtime"

	"saba/internal/sim"
)

// shardWorkers is the persistent worker runtime behind the sharded
// engine's concurrent phases. SetShards used to satisfy each phase by
// spawning one goroutine per busy shard and joining them on a WaitGroup
// — O(busy) spawns and stack setups per virtual-time step. Instead the
// pool parks one long-lived worker goroutine per schedulable slot
// (min(shards, GOMAXPROCS at SetShards time)), feeds it through a
// per-worker mailbox channel, and joins the phase on a reusable latch,
// so a step costs two synchronization points: the fan-out sends and one
// latch wait.
//
// Workers hold no reference to the Engine between phases — the phase
// and its engine are published before the wakes and cleared after the
// join — so
// an abandoned engine becomes unreachable as soon as the caller drops
// it; a finalizer then closes stop and the goroutines exit. SetShards
// also stops the pool explicitly on every reshard, so finalization is
// only the backstop for engines dropped mid-run.
type shardWorkers struct {
	wake  []chan struct{} // one mailbox per worker
	stop  chan struct{}
	latch *sim.Latch

	// Phase state, published by the coordinator before the wakes (the
	// channel send is the happens-before edge) and cleared after the
	// latch join. lists[w] holds the shard indices worker w runs this
	// phase.
	fn    phase
	e     *Engine
	lists [][]int
}

// phase is a per-shard phase body, fn(e, i) for shard i: a method
// expression such as (*Engine).collectShardDue, so handing one to run
// allocates nothing.
type phase func(e *Engine, i int)

// newShardWorkers parks n worker goroutines. n must be >= 2: a pool of
// one would just move inline work onto a channel round-trip.
func newShardWorkers(n int) *shardWorkers {
	sw := &shardWorkers{
		wake:  make([]chan struct{}, n),
		stop:  make(chan struct{}),
		latch: sim.NewLatch(),
		lists: make([][]int, n),
	}
	for w := range sw.wake {
		sw.wake[w] = make(chan struct{}, 1)
		go sw.worker(w)
	}
	return sw
}

func (sw *shardWorkers) worker(w int) {
	for {
		select {
		case <-sw.stop:
			return
		case <-sw.wake[w]:
			fn, e := sw.fn, sw.e
			for _, i := range sw.lists[w] {
				fn(e, i)
			}
			sw.latch.Arrive()
		}
	}
}

// close releases the worker goroutines. Idempotence is not required:
// every pool is closed at most once (by SetShards or the finalizer,
// never both — SetShards clears the engine's reference first).
func (sw *shardWorkers) close() {
	close(sw.stop)
}

// run executes fn(e, i) for every shard index in busy, fanning the list
// across the parked workers. The calling goroutine runs the first
// worker's share inline so a phase never pays for more wake-ups than it
// has remote workers; with one busy shard (or no pool) everything stays
// inline and the phase is synchronization-free.
func (sw *shardWorkers) run(busy []int, e *Engine, fn phase) {
	if len(busy) <= 1 || sw == nil {
		for _, i := range busy {
			fn(e, i)
		}
		return
	}
	n := len(sw.wake)
	if len(busy) < n {
		n = len(busy)
	}
	for w := 0; w < n; w++ {
		sw.lists[w] = sw.lists[w][:0]
	}
	for k, i := range busy {
		w := k % n
		sw.lists[w] = append(sw.lists[w], i)
	}
	sw.fn, sw.e = fn, e
	sw.latch.Start(n - 1)
	for w := 1; w < n; w++ {
		sw.wake[w] <- struct{}{}
	}
	for _, i := range sw.lists[0] {
		fn(e, i)
	}
	sw.latch.Wait()
	sw.fn, sw.e = nil, nil
}

// poolSize is the worker count for a shard count: one schedulable slot
// per shard, bounded by the cores the runtime will actually schedule.
func poolSize(shards int) int {
	n := runtime.GOMAXPROCS(0)
	if shards < n {
		n = shards
	}
	return n
}
