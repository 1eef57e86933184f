package netsim

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"

	"saba/internal/sim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// This file implements the engine's event shards: the engine split by
// fabric partition into shards, each owning a completion heap and (when
// the discipline supports it) an allocator clone, coordinated by a
// conservative virtual-time barrier. Every round (Engine.step), shards
// propose their earliest projected completion, the coordinator advances
// the clock to the minimum across shards and timers, and the shards'
// work — component allocation, due-completion collection, and bounded
// lookahead windows (lookahead.go) — runs concurrently on a persistent
// worker pool (workers.go). One shard with no pool is the plain serial
// engine; any shard count produces bit-for-bit the same completions.
// DESIGN.md §13 carries the determinism argument, and the differential
// gates check it against a naive reference engine for all six
// allocators, including under link-flap schedules.

// dueCand is one completion candidate popped during due collection: the
// flow and the heap key it carried when popped.
type dueCand struct {
	at float64
	id int
}

// retirement is one completion committed inside a lookahead window:
// the virtual time of the round that would have retired it, the heap
// key the flow carried when popped (the pop order within that round),
// and the flow. Sorting merged retirements by (at, key, id) reproduces
// the round-by-round completion sequence.
type retirement struct {
	at  float64
	key float64
	id  int
}

// engineShard is one per-partition event shard.
type engineShard struct {
	completions sim.IndexedHeap
	alloc       Allocator // per-shard clone; nil while the union path is in force
	comps       []int     // component indices assigned this recompute
	cands       []dueCand // due-collection candidates this round
	stopAt      float64   // first (key, id) that failed the due predicate;
	stopID      int       // +Inf when the shard's heap was exhausted
	declined    bool      // a clone declined AllocateScoped this recompute

	pods   []int32 // fabric partitions folded onto this shard
	active int     // active flows homed here (per-shard gauge source)

	// Per-shard labeled gauges, resolved at SetShards/SetTelemetry so
	// the event loop never does registry lookups (telemetry.Label
	// allocates). Zeroed when the shard retires (SetShards shrink).
	gActive *telemetry.Gauge // netsim.flows_active{engine,shard}
	gHeap   *telemetry.Gauge // netsim.completion_heap_size{engine,shard}

	// Lookahead-window scratch, owned by the shard's worker during a
	// window phase (lookahead.go). linkSeen is per-shard because window
	// traversals run concurrently; flow marks live in the engine-shared
	// flowSeen array, which is safe because an isolated shard's
	// components reach only its own flows.
	wIDs      []FlowID
	wOld      []float64
	wCompOff  []int
	wStack    []topology.LinkID
	linkSeen  []int64
	seeds     []topology.LinkID
	retired   []retirement
	wDeclined bool
	wRecs     int // window recomputes this round (telemetry, applied merged)
	wDirty    int // flows re-rated by window recomputes this round
}

// shardedState is the coordinator side of the event shards.
type shardedState struct {
	barrier *sim.Barrier
	shards  []*engineShard
	// homeOfNode maps a source node to its home shard: the node's
	// fabric partition folded onto the shard count (spine-layer nodes,
	// which source no flows, fold to shard 0).
	homeOfNode []int32
	workers    *shardWorkers // nil when one schedulable slot: phases run inline

	clonedFrom Allocator // allocator the clones were derived from
	clones     bool      // clones usable: component-parallel allocation on
	// cloneCache pools derived clone sets per source allocator, so
	// swapping allocators back and forth (SetAllocator A→B→A) reuses
	// A's clones — and their internal scratch — instead of rederiving.
	cloneCache map[Allocator][]Allocator

	compOff  []int     // e.ids[compOff[c]:compOff[c+1]] = component c (ascending)
	merged   []dueCand // cross-shard due merge scratch
	busy     []int     // shard indices with work in the current phase
	isolated []bool    // per-shard: no flow couples its pods this round
	mergedR  []retirement

	// Per-round parameters of the phase bodies. Phases are method
	// expressions, which cost no allocation, so their parameters travel
	// here instead of in closure captures.
	dueT    float64 // collectDue's tNext for the round in flight
	windowH float64 // runLookahead's safe horizon for the round in flight

	// lookahead gates the window optimization for this run. It starts
	// true and latches false if a clone ever declines inside a window
	// (defensively: no shardable discipline declines today) — the
	// recovery recompute is rate-correct but not provably bit-exact, so
	// windows stop rather than compound.
	lookahead bool
}

// SetShards splits the engine into n per-partition event shards
// coordinated by a conservative virtual-time barrier. n <= 1 selects one
// shard, the engine's initial state; n < 0 derives one shard per fabric
// partition of the topology. Safe to call between steps, even mid-run:
// projected completions migrate to their owning heaps. Flow ownership is
// the fabric partition of the flow's source host folded onto the shard
// count, so any n is valid on any topology.
func (e *Engine) SetShards(n int) {
	if n < 0 {
		n = e.net.partition().NumParts()
	}
	n = max(n, 1)
	old := e.sh
	sh := &shardedState{
		barrier:   sim.NewBarrier(n),
		shards:    make([]*engineShard, n),
		isolated:  make([]bool, n),
		lookahead: true,
	}
	shardBuf := make([]engineShard, n) // one block, not n tiny allocations
	for i := range sh.shards {
		sh.shards[i] = &shardBuf[i]
	}
	sh.busy = make([]int, 0, n)
	if n > 1 {
		// A lone shard needs no partition: it owns every flow (homeOf is
		// 0) and, with no other shard to emit events, is isolated (no
		// pods to couple), so the fabric's pod-coupling counters stay off.
		part := e.net.partition()
		for p := 0; p < part.NumParts(); p++ {
			s := sh.shards[p%n]
			s.pods = append(s.pods, int32(p))
		}
		sh.homeOfNode = make([]int32, len(e.net.top.Nodes()))
		for v := range sh.homeOfNode {
			sh.homeOfNode[v] = max(part.OfNode(topology.NodeID(v)), 0) % int32(n)
		}
	}
	e.sh = sh // homeOf consults e.sh
	if old != nil {
		if old.workers != nil {
			old.workers.close()
		}
		for _, s := range old.shards {
			e.redistribute(&s.completions)
		}
		retireShardGauges(old)
	}
	// Per-shard active counts include stalled and zero-rate flows, which
	// live on no heap; recount from the network.
	for i := range e.net.flows {
		if e.net.flows[i].active {
			sh.shards[e.homeOf(FlowID(i))].active++
		}
	}
	e.bindShardGauges()
	if ps := poolSize(n); ps >= 2 {
		sh.workers = newShardWorkers(ps)
		// Backstop for engines dropped mid-run without SetShards(1): the
		// workers reference only the pool (never the engine between
		// phases), so an abandoned engine becomes unreachable and the
		// finalizer releases them. Registered once per engine — the
		// closure reads e.sh at finalization time, so it covers every
		// later pool too.
		if !e.poolFinalizer {
			e.poolFinalizer = true
			runtime.SetFinalizer(e, func(e *Engine) {
				if e.sh.workers != nil {
					e.sh.workers.close()
				}
			})
		}
	}
}

// retireShardGauges drains the gauges of every shard of a replaced
// state to zero, so a shard retired by a shrinking SetShards does not
// leak its last reading into the telemetry snapshot forever. The new
// state's gauges are bound afterwards and republish.
func retireShardGauges(old *shardedState) {
	for _, s := range old.shards {
		s.gActive.Set(0)
		s.gHeap.Set(0)
	}
}

// bindShardGauges resolves the per-shard gauges against the engine's
// current registry and publishes the current readings. Called from
// SetShards and SetTelemetry.
func (e *Engine) bindShardGauges() {
	for i, s := range e.sh.shards {
		shard := strconv.Itoa(i)
		s.gActive = e.tel.reg.Gauge(telemetry.Label("netsim.flows_active",
			"engine", e.tel.engineID, "shard", shard))
		s.gHeap = e.tel.reg.Gauge(telemetry.Label("netsim.completion_heap_size",
			"engine", e.tel.engineID, "shard", shard))
		s.gActive.Set(float64(s.active))
	}
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	e.publishHeapGauges()
}

// noteShardFlow tracks the per-shard active-flow count as flows are
// admitted, cancelled and retired.
func (e *Engine) noteShardFlow(id FlowID, d int) {
	s := e.sh.shards[e.homeOf(id)]
	s.active += d
	s.gActive.Set(float64(s.active))
}

// Shards returns the number of event shards.
func (e *Engine) Shards() int { return len(e.sh.shards) }

// redistribute moves every entry of src onto its owner's shard heap.
func (e *Engine) redistribute(src *sim.IndexedHeap) {
	for {
		at, id, ok := src.Min()
		if !ok {
			return
		}
		src.Pop()
		e.sh.shards[e.homeOf(FlowID(id))].completions.Fix(id, at)
	}
}

// homeOf maps a flow to its owning shard: the fabric partition of its
// source host, folded onto the shard count. Src is immutable for the
// life of a FlowID slot, so ownership never moves while a flow is
// active — reroutes and stalls keep a flow on its home heap, and the
// FlowID-recycling free list never changes a slot's owner mid-flight.
func (e *Engine) homeOf(id FlowID) int {
	if e.sh.homeOfNode == nil {
		return 0 // one shard
	}
	return int(e.sh.homeOfNode[e.net.flows[id].Src])
}

// heapFix (re)keys a flow's projected completion on its home shard's
// heap. All heap traffic outside the step loop (reproject, cancel, link
// failures) goes through heapFix and heapRemove; the heap gauges are
// published once per recompute (publishHeapGauges), which follows every
// such change before time advances.
func (e *Engine) heapFix(id FlowID, key float64) {
	e.sh.shards[e.homeOf(id)].completions.Fix(int(id), key)
}

// heapRemove drops a flow's projection from its home shard's heap.
func (e *Engine) heapRemove(id FlowID) {
	e.sh.shards[e.homeOf(id)].completions.Remove(int(id))
}

// publishHeapGauges stores every shard's heap depth and the engine's
// total into the completion_heap_size gauges.
func (e *Engine) publishHeapGauges() {
	n := 0
	for _, s := range e.sh.shards {
		s.gHeap.Set(float64(s.completions.Len()))
		n += s.completions.Len()
	}
	e.tel.heapSize.Set(float64(n))
}

// runPhase invokes fn for every shard in sh.busy — concurrently when
// more than one has work, fanned across the persistent worker pool
// (inline when the pool is absent: one schedulable core, or a single
// busy shard).
func (e *Engine) runPhase(fn phase) {
	e.sh.workers.run(e.sh.busy, e, fn)
}

// collectShardDue is the per-shard due-collection phase body: pop every projected completion at or before sh.dueT — by
// the completionSlack predicate — into the shard's candidate list,
// recording the first survivor as the shard's stop marker.
func (e *Engine) collectShardDue(i int) {
	sh := e.sh
	tNext := sh.dueT
	s := sh.shards[i]
	s.cands = s.cands[:0]
	s.stopAt = math.Inf(1)
	s.stopID = 0
	for {
		at, idInt, ok := s.completions.Min()
		if !ok {
			break
		}
		f := &e.net.flows[idInt]
		if at > tNext && f.RemainingAt(tNext) > completionSlack(f) {
			s.stopAt, s.stopID = at, idInt
			break
		}
		s.completions.Pop()
		s.cands = append(s.cands, dueCand{at: at, id: idInt})
	}
}

// collectDue returns every flow due by tNext, marked finished, in the
// order one heap over all flows would pop them. Each shard pops its heap while
// the due predicate passes and records the first (key, id) that fails;
// the globally first failure — the lexicographic minimum across shards
// — is where that single heap would have stopped, because every element
// ordered before it passes the predicate (the predicate is intrinsic to
// the flow, not to pop order). Candidates at or beyond the stop are
// re-inserted with their original keys (the indexed heap's order is a
// pure function of (key, id), so the re-insert is observably
// identical), and the survivors — merged and sorted by (key, id) — fix
// the completion sequence, and with it the callback and FlowID-recycling
// order, independently of the shard count.
func (e *Engine) collectDue(tNext float64) []dueCand {
	sh := e.sh
	sh.busy = sh.busy[:0]
	for i, s := range sh.shards {
		if s.completions.Len() > 0 {
			sh.busy = append(sh.busy, i)
		}
	}
	sh.dueT = tNext
	e.runPhase((*Engine).collectShardDue)

	if len(sh.busy) == 0 {
		return nil
	}
	// One heap pops in (key, id) order and stops at its own first
	// failure, so a lone busy shard's candidates are the sequence as is.
	due := sh.shards[sh.busy[0]].cands
	if len(sh.busy) > 1 {
		due = e.mergeDue()
	}
	for _, c := range due {
		f := &e.net.flows[c.id]
		f.Remaining = 0
		f.lastSet = tNext
	}
	return due
}

// mergeDue cuts every busy shard's candidates at the global stop,
// putting the rest back on their heaps, and merges the survivors in
// (key, id) order.
func (e *Engine) mergeDue() []dueCand {
	sh := e.sh
	stopAt, stopID := math.Inf(1), 0
	for _, i := range sh.busy {
		s := sh.shards[i]
		if s.stopAt < stopAt || (s.stopAt == stopAt && s.stopID < stopID) {
			stopAt, stopID = s.stopAt, s.stopID
		}
	}
	sh.merged = sh.merged[:0]
	for _, i := range sh.busy {
		s := sh.shards[i]
		for _, c := range s.cands {
			if c.at > stopAt || (c.at == stopAt && c.id >= stopID) {
				s.completions.Fix(c.id, c.at) // past the global stop: put back
				continue
			}
			sh.merged = append(sh.merged, c)
		}
	}
	slices.SortFunc(sh.merged, func(a, b dueCand) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		default:
			return a.id - b.id
		}
	})
	return sh.merged
}

// allocShardComps is the per-shard allocation phase body: run the
// shard's clone over each component assigned to
// it this recompute, flagging a decline for the coordinator.
func (e *Engine) allocShardComps(i int) {
	sh := e.sh
	s := sh.shards[i]
	for _, c := range s.comps {
		comp := e.ids[sh.compOff[c]:sh.compOff[c+1]]
		if !s.alloc.AllocateScoped(e.net, comp) {
			s.declined = true
			return
		}
	}
}

// allocComponents routes the dirty components to their home shards'
// allocator clones and runs the shards' allocations concurrently. It
// reports false when a clone declined; the caller then restores the
// saved rates and widens to a full recompute.
func (e *Engine) allocComponents() bool {
	sh := e.sh
	// Pre-size each shard's heap for its active population before
	// reproject re-keys it one Fix at a time.
	for _, s := range sh.shards {
		s.completions.Grow(len(e.net.flows)-1, s.active)
	}
	// Assign each component to the home shard of its lowest flow. A
	// component may span pods (cross-pod flows couple them through cut
	// links); ownership by lowest member keeps the assignment
	// deterministic and every component on exactly one shard.
	nc := len(sh.compOff) - 1
	for _, s := range sh.shards {
		s.comps = s.comps[:0]
		s.declined = false
	}
	sh.busy = sh.busy[:0]
	for c := 0; c < nc; c++ {
		home := e.homeOf(e.ids[sh.compOff[c]])
		s := sh.shards[home]
		if len(s.comps) == 0 {
			sh.busy = append(sh.busy, home)
		}
		s.comps = append(s.comps, c)
	}
	e.runPhase((*Engine).allocShardComps)
	for _, i := range sh.busy {
		if sh.shards[i].declined {
			return false
		}
	}
	return true
}

// ensureClones (re)derives per-shard allocator clones when the engine's
// allocator changed since the last recompute, pooling previously
// derived clone sets so an allocator swapped back in reuses its clones
// (and their internal caches and scratch) instead of rebuilding them.
// Without a worker pool the shards simply share the parent allocator. A
// nil clone marks the allocator (or its current configuration)
// non-shardable; allocation then takes the union of the components in
// one call while the event loop keeps its shards. Non-shardable
// outcomes are deliberately not cached: a configuration change (e.g. a
// Decentral channel detach) can make the same allocator shardable
// later.
func (sh *shardedState) ensureClones(alloc Allocator) {
	if sh.clonedFrom == alloc {
		return
	}
	sh.clonedFrom = alloc
	sh.clones = false
	if cached, ok := sh.cloneCache[alloc]; ok {
		for i, s := range sh.shards {
			s.alloc = cached[i]
		}
		sh.clones = true
		return
	}
	sa, ok := alloc.(ShardableAllocator)
	if !ok {
		for _, s := range sh.shards {
			s.alloc = nil
		}
		return
	}
	clones := make([]Allocator, len(sh.shards))
	if sh.workers == nil {
		// One schedulable slot: phases run inline, one shard after
		// another on the coordinator goroutine, so every shard can
		// allocate with the parent itself. A scoped clone shares all
		// per-link state with the parent anyway — sequentially they are
		// the same computation — and skipping derivation skips the
		// per-clone run scratch entirely. Probe shardability once so a
		// non-shardable configuration still declines to the union path.
		if sa.ShardClone() == nil {
			for _, s := range sh.shards {
				s.alloc = nil
			}
			return
		}
		for i := range clones {
			clones[i] = alloc
		}
	} else {
		for i := range sh.shards {
			c := sa.ShardClone()
			if c == nil {
				for _, s2 := range sh.shards {
					s2.alloc = nil
				}
				return
			}
			clones[i] = c
		}
	}
	for i, s := range sh.shards {
		s.alloc = clones[i]
	}
	if sh.cloneCache == nil {
		sh.cloneCache = map[Allocator][]Allocator{}
	}
	sh.cloneCache[alloc] = clones
	sh.clones = true
}

// splitDirty expands the recompute seeds (dirty links and flows)
// directly into their link-connected components in one traversal: e.ids
// holds every component's flows contiguously (each sorted ascending)
// and compOff the boundaries. Inactive seed flows are skipped and
// detached stalled flows seed their last known path, so the
// concatenation of the parts is exactly the union of the components the
// seeds touch. Component allocation slices e.ids per component, and the
// allocator contract only requires each component ascending. With union
// set, every seed feeds one traversal instead, so e.ids is the whole
// union as a single ascending part for one AllocateScoped call. A dense
// union — n members with n·log2(n) at least the flow-slot count, as on
// a single switch where every flow shares one component — is emitted by
// sweeping flowSeen for the traversal's epoch instead of sorting: every
// member, and only a member, carries it. The sweep stays out of
// lookahead windows, whose concurrent traversals write flowSeen.
//
// Seed order is deterministic, so discovery order — and with it the
// component list — is too. Component order across shards is free:
// components share no links by construction, so AllocateScoped on one
// is independent of every other, which the concurrent per-shard
// allocation phase already relies on.
func (e *Engine) splitDirty(union bool) {
	sh := e.sh
	e.ids = e.ids[:0]
	sh.compOff = sh.compOff[:0]
	ep := e.epoch.Add(1)
	for len(e.linkSeen) < len(e.net.linkFlows) {
		e.linkSeen = append(e.linkSeen, 0)
	}
	for len(e.flowSeen) < len(e.net.flows) {
		e.flowSeen = append(e.flowSeen, 0)
	}
	e.stack = e.stack[:0]
	for _, l := range e.seedLinks {
		if e.linkSeen[l] == ep {
			continue
		}
		e.linkSeen[l] = ep
		e.stack = append(e.stack, l)
		if !union {
			e.growComponent(ep, len(e.ids))
		}
	}
	for _, id := range e.seedFlows {
		f := &e.net.flows[id]
		if !f.active || e.flowSeen[id] == ep {
			continue // e.g. admitted then cancelled before this recompute
		}
		start := len(e.ids)
		e.flowSeen[id] = ep
		e.ids = append(e.ids, id)
		for _, l := range f.Path {
			if e.linkSeen[l] != ep {
				e.linkSeen[l] = ep
				e.stack = append(e.stack, l)
			}
		}
		if !union {
			e.growComponent(ep, start)
		}
	}
	if union && e.drainLinks(ep) > 0 {
		if n, nf := len(e.ids), len(e.net.flows); n*bits.Len(uint(n)) >= nf {
			e.ids = e.ids[:0]
			for id, mark := range e.flowSeen[:nf] {
				if mark == ep {
					e.ids = append(e.ids, FlowID(id))
				}
			}
		} else {
			slices.Sort(e.ids)
		}
		sh.compOff = append(sh.compOff, 0)
	}
	sh.compOff = append(sh.compOff, len(e.ids))
}

// growComponent drains the link stack into e.ids and closes out the
// component that started at start, sorted (dropped when the seed reached
// no flows). A method rather than a closure inside splitDirty: the
// closure captured locals and escaped, costing one heap allocation per
// scoped recompute on the hot path.
func (e *Engine) growComponent(ep int64, start int) {
	e.drainLinks(ep)
	if len(e.ids) > start {
		slices.Sort(e.ids[start:])
		e.sh.compOff = append(e.sh.compOff, start)
	}
}

// drainLinks pops the link stack until empty, appending every flow on a
// popped link not yet marked for epoch ep to e.ids (marking it and
// pushing its unseen links), and returns len(e.ids).
func (e *Engine) drainLinks(ep int64) int {
	for len(e.stack) > 0 {
		l := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, fid := range e.net.linkFlows[l] {
			if e.flowSeen[fid] == ep {
				continue
			}
			e.flowSeen[fid] = ep
			e.ids = append(e.ids, fid)
			for _, fl := range e.net.flows[fid].Path {
				if e.linkSeen[fl] != ep {
					e.linkSeen[fl] = ep
					e.stack = append(e.stack, fl)
				}
			}
		}
	}
	return len(e.ids)
}
