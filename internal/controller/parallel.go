package controller

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"saba/internal/netsim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// This file is the parallel enforcement core shared by both controller
// deployments: a bounded worker pool that fans independent per-port
// Eq. 2 solves out across cores, and a cross-port solution cache that
// memoizes the complete port configuration (weights + PL→queue mapping)
// per (application set, queue count, epoch).
//
// Determinism argument. A port's enforced configuration is a pure
// function of (sorted app set, queue count, solve epoch): the Eq. 2
// weights depend on the apps' sensitivity coefficients (immutable per
// app ID) or on the global solve (fixed per epoch), and the PL→queue
// mapping depends on the PL assignment and hierarchy (fixed per epoch).
// The compute phase only reads that state, so plans may be computed in
// any order — including concurrently — and the apply phase pushes them
// through the Enforcer strictly in ascending port order, one goroutine,
// so the switch-programming sequence is identical whatever the worker
// count. Errors are deterministic too: the lowest-port failure wins.

// portPlan is one computed-but-not-yet-applied port configuration.
type portPlan struct {
	port topology.LinkID
	cfg  netsim.PortConfig
	key  []byte // appSetKey of the membership the plan was computed for
	skip bool   // enforcement memo hit (or empty port): nothing to push
}

// planScratch is per-worker scratch for plan computation, so concurrent
// workers never share the controller-level buffers.
type planScratch struct {
	ids []AppID
	key []byte
}

// parallelThreshold is the batch size below which fanning out is not
// worth the goroutine setup (a ConnCreate path is a handful of ports).
const parallelThreshold = 8

// computePlans evaluates fn(i) for every port index across a bounded
// worker pool, collecting plans positionally so assembly is independent
// of completion order. The first error by *index* (not by completion
// time) is returned, keeping failures deterministic under concurrency.
func computePlans(n, workers int, fn func(i int, sc *planScratch) (portPlan, error)) ([]portPlan, error) {
	plans := make([]portPlan, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelThreshold {
		var sc planScratch
		for i := 0; i < n; i++ {
			p, err := fn(i, &sc)
			if err != nil {
				return nil, err
			}
			plans[i] = p
		}
		return plans, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc planScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				plans[i], errs[i] = fn(i, &sc)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// resolveWorkers maps a Config.Workers value to a concrete pool size.
func resolveWorkers(configured int) int {
	if configured > 0 {
		return configured
	}
	return runtime.GOMAXPROCS(0)
}

// solutionCache memoizes enforced port configurations across ports:
// on fat-tree fabrics most ports carry one of a handful of application
// mixes, so sharing the solution turns O(ports) Eq. 2 solves into
// O(distinct app sets). Entries are keyed by (app set, queue count) and
// validated against an epoch — any change to the global solve inputs
// (re-clustering, and under the global strategy the registered set)
// bumps the epoch and atomically invalidates everything.
//
// Concurrent workers that race on the same key solve it exactly once:
// the loser parks on the winner's sync.Once instead of re-solving.
type solutionCache struct {
	mu      sync.Mutex
	epoch   uint64
	entries map[string]*solEntry
	hits    *telemetry.Counter
	misses  *telemetry.Counter
}

// solEntry is one memoized solution; once guards its single computation.
type solEntry struct {
	once sync.Once
	cfg  netsim.PortConfig
	err  error
}

func newSolutionCache(hits, misses *telemetry.Counter) *solutionCache {
	return &solutionCache{
		entries: map[string]*solEntry{},
		hits:    hits,
		misses:  misses,
	}
}

// get returns the cached configuration for key at epoch, computing it
// via compute on the first request. Stale-epoch entries are discarded
// wholesale: a key built under another epoch must never collide with
// the same byte string built under this one.
func (sc *solutionCache) get(epoch uint64, key []byte, compute func() (netsim.PortConfig, error)) (netsim.PortConfig, error) {
	sc.mu.Lock()
	if sc.epoch != epoch {
		sc.entries = map[string]*solEntry{}
		sc.epoch = epoch
	}
	e, ok := sc.entries[string(key)]
	if !ok {
		e = &solEntry{}
		sc.entries[string(key)] = e
		sc.misses.Inc()
	} else {
		sc.hits.Inc()
	}
	sc.mu.Unlock()
	e.once.Do(func() { e.cfg, e.err = compute() })
	return e.cfg, e.err
}

// len reports the live entry count (tests).
func (sc *solutionCache) len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.entries)
}

// defaultQueue picks the port's default queue: the heaviest one, so
// unmapped traffic degrades softly, breaking ties toward the lowest
// queue index. The tie-break is explicit so the choice can never depend
// on any map-iteration order upstream.
func defaultQueue(qWeights []float64) int {
	def := 0
	for q, w := range qWeights {
		if w > qWeights[def] {
			def = q
		}
	}
	return def
}

// uniquePorts returns the sorted, deduplicated port set of a path.
func uniquePorts(path []topology.LinkID) []topology.LinkID {
	ports := make([]topology.LinkID, 0, len(path))
	ports = append(ports, path...)
	slices.Sort(ports)
	out := ports[:0]
	for i, p := range ports {
		if i == 0 || p != ports[i-1] {
			out = append(out, p)
		}
	}
	return out
}
