package netsim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"saba/internal/sim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// engineSeq hands every engine a process-unique id for its telemetry
// label set. Before this, the utilization gauges were keyed by allocator
// name alone, so two engines running the same allocator concurrently
// (sabaexp -parallel) raced on one shared gauge and overwrote each
// other's readings.
var engineSeq atomic.Uint64

// engineMetrics holds the simulator's telemetry instruments, resolved
// once at construction so the event loop never does registry lookups.
// flowSeconds records *virtual* durations (sim-time clock semantics):
// under a fixed seed the histogram is bit-for-bit reproducible.
type engineMetrics struct {
	reg              *telemetry.Registry
	events           *telemetry.Counter // netsim.events
	rateRecomputes   *telemetry.Counter // netsim.rate_recomputes
	scopedRecomputes *telemetry.Counter // netsim.scoped_recomputes
	dirtyFlows       *telemetry.Counter // netsim.dirty_flows
	flowCompletions  *telemetry.Counter // netsim.flow_completions
	linkFailures     *telemetry.Counter // netsim.link_failures
	linkRestores     *telemetry.Counter // netsim.link_restores
	flowReroutes     *telemetry.Counter // netsim.flow_reroutes
	flowStalls       *telemetry.Counter // netsim.flow_stalls
	flowResumes      *telemetry.Counter // netsim.flow_resumes
	lookaheadRounds  *telemetry.Counter // netsim.lookahead_rounds
	lookaheadEvents  *telemetry.Counter // netsim.lookahead_completions
	flowsActive      *telemetry.Gauge   // netsim.flows_active{engine=...}
	heapSize         *telemetry.Gauge   // netsim.completion_heap_size{engine=...}
	flowSeconds      *telemetry.Histogram

	// Per-allocator port-utilization gauges, cached by (allocator name)
	// within this engine's metrics (allocators can be swapped mid-run via
	// SetAllocator). The label set additionally carries the engine id so
	// two engines running the same allocator concurrently never share a
	// gauge.
	engineID string
	utilMax  map[string]*telemetry.Gauge // netsim.port_util_max{alloc=...,engine=...}
	utilMean map[string]*telemetry.Gauge // netsim.port_util_mean{alloc=...,engine=...}
}

func newEngineMetrics(reg *telemetry.Registry, engineID string) *engineMetrics {
	return &engineMetrics{
		reg:              reg,
		engineID:         engineID,
		events:           reg.Counter("netsim.events"),
		rateRecomputes:   reg.Counter("netsim.rate_recomputes"),
		scopedRecomputes: reg.Counter("netsim.scoped_recomputes"),
		dirtyFlows:       reg.Counter("netsim.dirty_flows"),
		flowCompletions:  reg.Counter("netsim.flow_completions"),
		linkFailures:     reg.Counter("netsim.link_failures"),
		linkRestores:     reg.Counter("netsim.link_restores"),
		flowReroutes:     reg.Counter("netsim.flow_reroutes"),
		flowStalls:       reg.Counter("netsim.flow_stalls"),
		flowResumes:      reg.Counter("netsim.flow_resumes"),
		lookaheadRounds:  reg.Counter("netsim.lookahead_rounds"),
		lookaheadEvents:  reg.Counter("netsim.lookahead_completions"),
		flowsActive:      reg.Gauge(telemetry.Label("netsim.flows_active", "engine", engineID)),
		heapSize:         reg.Gauge(telemetry.Label("netsim.completion_heap_size", "engine", engineID)),
		flowSeconds:      reg.Histogram("netsim.flow_seconds"),
		utilMax:          map[string]*telemetry.Gauge{},
		utilMean:         map[string]*telemetry.Gauge{},
	}
}

// utilGauges returns the utilization gauges for the named allocator,
// creating them on first use.
func (m *engineMetrics) utilGauges(alloc string) (max, mean *telemetry.Gauge) {
	max = m.utilMax[alloc]
	if max == nil {
		max = m.reg.Gauge(telemetry.Label("netsim.port_util_max", "alloc", alloc, "engine", m.engineID))
		m.utilMax[alloc] = max
	}
	mean = m.utilMean[alloc]
	if mean == nil {
		mean = m.reg.Gauge(telemetry.Label("netsim.port_util_mean", "alloc", alloc, "engine", m.engineID))
		m.utilMean[alloc] = mean
	}
	return max, mean
}

// Engine is the fluid discrete-event driver: it alternates between
// recomputing flow rates (whenever the flow set changes) and advancing
// virtual time to the next flow completion or scheduled event.
//
// Two structures make each step cheap in large networks. First, indexed
// min-heaps of projected completion times replace the per-step scan over
// all active flows: a flow's heap key is lastSet + Remaining/Rate,
// recomputed only when its rate actually changes, so finding the next
// completion is O(1) per heap. Second, rate recomputation is scoped to
// the dirty components — the flows transitively link-connected to
// whatever was added or removed — because bandwidth sharing across
// disjoint components is independent for separable disciplines.
// Allocators that cannot localize (Homa, Sincronia) decline via
// AllocateScoped and fall back to a full recompute.
//
// There is one event loop. The engine is always split into event shards
// (shard.go) coordinated by a conservative virtual-time barrier; a new
// engine has one shard and no worker pool, and SetShards splits it per
// pod or into n shards without changing a single completion time.
type Engine struct {
	net      *Network
	alloc    Allocator
	clock    sim.Clock
	events   sim.Queue
	onDone   []func(*Engine, FlowID) // indexed by FlowID; nil = no callback
	tel      *engineMetrics
	engineID string // process-unique telemetry label, from engineSeq

	dirty    bool
	dirtyAll bool // recompute cannot be scoped (allocator swap, reconfig)

	// Dirty-set seeds accumulated since the last recompute: flows added
	// (their components must be rated) and links whose capacity was
	// released by removed flows (their surviving flows' components must
	// be re-rated).
	seedFlows []FlowID
	seedLinks []topology.LinkID

	// sh holds the event shards: per-partition completion heaps and
	// allocator clones coordinated by a conservative virtual-time
	// barrier. Never nil; one shard until SetShards says otherwise. See
	// shard.go.
	sh *shardedState

	// Recompute scratch, reused across steps. epoch is atomic because
	// lookahead windows run component traversals concurrently (per-shard
	// linkSeen arrays, shared flowSeen with owner-only writes) and draw
	// their epochs from the same counter as the coordinator's phases.
	ids      []FlowID  // flows handed to the allocator last recompute
	oldRates []float64 // parallel to ids: rates before the recompute
	linkSeen []int64   // epoch marks for the component BFS
	flowSeen []int64
	epoch    atomic.Int64
	stack    []topology.LinkID // BFS worklist

	// Completion-callback accounting for the lookahead gate: windows
	// reorder when callbacks run relative to other shards' simulation
	// work, which is only safe when every registered callback is pure
	// (PureCallbacks) or none is registered at all (onDoneCount == 0).
	onDoneCount   int
	pureCallbacks bool
	poolFinalizer bool // worker-pool cleanup finalizer registered

	// audit, when set, is called after every rate recomputation with
	// its virtual time and the flows it re-rated. Window recomputes call
	// it from shard workers concurrently, each with flows of its own
	// shard only. Tests install it to check the model's invariants.
	audit func(t float64, ids []FlowID)

	// Stalled-flow tracking: flows parked with no live path after a link
	// failure. stalled may hold stale or duplicate entries (slots recycle);
	// resumeStalled filters on the per-flow flag, and stalledCount is the
	// exact live count.
	stalled      []FlowID
	stalledCount int

	// OnAdvance, when set, observes every time advance [t0, t1) with the
	// flow rates that were in force during it — the hook used by the
	// utilization tracer (Fig. 2). It runs after flows have progressed but
	// before completion callbacks fire.
	OnAdvance func(e *Engine, t0, t1 float64)

	// OnTopologyChange, when set, fires after every applied link or switch
	// failure/restore with the new topology liveness epoch. core.RunJobs
	// wires it to the controller's reconvergence path.
	OnTopologyChange func(e *Engine, epoch uint64)
}

// Errors returned by Run.
var (
	ErrDeadlock = errors.New("netsim: zero-rate flows with no pending events (allocation deadlock)")
	ErrHorizon  = errors.New("netsim: simulation horizon exceeded")
)

// NewEngine creates an engine over the network with the given allocator.
func NewEngine(net *Network, alloc Allocator) *Engine {
	id := strconv.FormatUint(engineSeq.Add(1), 10)
	e := &Engine{
		net:      net,
		alloc:    alloc,
		engineID: id,
		tel:      newEngineMetrics(telemetry.Default, id),
	}
	e.SetShards(1)
	return e
}

// SetTelemetry rebinds the engine's instruments to reg (tests use this to
// isolate from the process-wide default registry).
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	e.tel = newEngineMetrics(reg, e.engineID)
	e.bindShardGauges()
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.clock.Now() }

// Network returns the underlying network.
func (e *Engine) Network() *Network { return e.net }

// Allocator returns the active allocator.
func (e *Engine) Allocator() Allocator { return e.alloc }

// SetAllocator swaps the bandwidth-sharing discipline; rates are
// recomputed on the next step.
func (e *Engine) SetAllocator(a Allocator) {
	e.alloc = a
	e.dirty = true
	e.dirtyAll = true
}

// MarkDirty forces a full rate recomputation on the next step (used after
// out-of-band configuration changes such as new WFQ weights, which can
// shift rates on links no flow was added to or removed from).
func (e *Engine) MarkDirty() {
	e.dirty = true
	e.dirtyAll = true
}

// AddFlow activates a flow; onDone (optional) fires when it completes.
func (e *Engine) AddFlow(spec FlowSpec, onDone func(*Engine, FlowID)) (FlowID, error) {
	id, err := e.net.AddFlow(e.Now(), spec)
	if err != nil {
		return 0, err
	}
	if onDone != nil {
		e.setDone(id, onDone)
	}
	e.seedFlows = append(e.seedFlows, id)
	e.registerIfStalled(id)
	e.noteShardFlow(id, +1)
	e.dirty = true
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	return id, nil
}

// AddFlows atomically activates a batch of flows under a single pending
// rate recomputation — a job stage's shuffle fan-out admits all its
// flows for the cost of one allocator invocation instead of one per
// flow. onDone (optional) fires once per completing flow.
func (e *Engine) AddFlows(specs []FlowSpec, onDone func(*Engine, FlowID)) ([]FlowID, error) {
	ids, err := e.net.AddFlows(e.Now(), specs)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if onDone != nil {
			e.setDone(id, onDone)
		}
		e.seedFlows = append(e.seedFlows, id)
		e.registerIfStalled(id)
		e.noteShardFlow(id, +1)
	}
	e.dirty = true
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	return ids, nil
}

// CancelFlow removes a flow without firing its completion callback.
func (e *Engine) CancelFlow(id FlowID) error {
	f, err := e.net.Flow(id)
	if err != nil {
		return err
	}
	e.seedLinks = append(e.seedLinks, f.Path...)
	if f.stalled {
		e.stalledCount--
	}
	e.noteShardFlow(id, -1)
	if err := e.net.RemoveFlow(id); err != nil {
		return err
	}
	e.heapRemove(id)
	e.takeDone(id)
	e.dirty = true
	e.tel.flowsActive.Set(float64(e.net.NumActive()))
	return nil
}

// At schedules fn at absolute virtual time t (>= Now).
func (e *Engine) At(t float64, fn func(*Engine)) error {
	if t < e.Now() {
		return fmt.Errorf("%w: %g < %g", sim.ErrPastEvent, t, e.Now())
	}
	e.events.Schedule(t, func() { fn(e) })
	return nil
}

// After schedules fn dt seconds from now.
func (e *Engine) After(dt float64, fn func(*Engine)) error {
	if dt < 0 {
		return fmt.Errorf("netsim: negative delay %g", dt)
	}
	return e.At(e.Now()+dt, fn)
}

// Idle reports whether nothing remains to simulate.
func (e *Engine) Idle() bool {
	return e.net.NumActive() == 0 && e.events.Len() == 0
}

// Run advances the simulation until idle or until virtual time exceeds
// horizon (seconds; use math.Inf(1) for no limit).
func (e *Engine) Run(horizon float64) error {
	for !e.Idle() {
		if err := e.step(horizon); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances until the predicate holds, the simulation idles, or
// the horizon passes.
func (e *Engine) RunUntil(horizon float64, pred func() bool) error {
	for !e.Idle() && !pred() {
		if err := e.step(horizon); err != nil {
			return err
		}
	}
	return nil
}

// step performs one barrier round: reallocate if needed, let every
// shard propose its earliest projected completion, advance the clock to
// the minimum across shards and timers, retire the due completions in
// (time, id) order, fire their callbacks, then fire the due timers.
// When the earliest event belongs to a shard whose pods no cross-pod
// flow touches, the round instead runs bounded lookahead windows
// (lookahead.go): every such isolated shard advances all its
// completions below the cross-shard horizon in one round.
//
// netsim.events meters the discrete events themselves: completions
// retired plus timers fired, minimum one per round, so events/s
// measures simulation throughput rather than round count.
func (e *Engine) step(horizon float64) error {
	sh := e.sh
	if e.dirty {
		e.recompute()
		e.dirty = false
		e.tel.rateRecomputes.Inc()
		e.observeUtilization()
	}

	sh.barrier.Reset()
	tFlow := math.Inf(1)
	minShard := -1
	for i, s := range sh.shards {
		if at, _, ok := s.completions.Min(); ok {
			sh.barrier.Propose(i, at)
			if at < tFlow {
				tFlow, minShard = at, i
			}
		}
	}
	tEvent := math.Inf(1)
	if at, ok := e.events.PeekTime(); ok {
		tEvent = at
	}
	tNext := math.Min(tFlow, tEvent)
	if math.IsInf(tNext, 1) {
		e.tel.events.Inc()
		if e.net.NumActive() > 0 {
			return ErrDeadlock
		}
		return nil
	}
	if tNext > horizon {
		e.tel.events.Inc()
		return fmt.Errorf("%w: next event at %gs > horizon %gs", ErrHorizon, tNext, horizon)
	}

	if tFlow < tEvent && minShard >= 0 && e.lookaheadReady() {
		e.computeIsolation()
		if sh.isolated[minShard] {
			h := sh.barrier.HorizonExcept(sh.isolated)
			h = math.Min(h, tEvent)
			h = math.Min(h, horizon)
			if tFlow < h-timeSlack {
				return e.runLookahead(h)
			}
		}
	}

	t0 := e.Now()
	if err := e.clock.AdvanceTo(tNext); err != nil {
		e.tel.events.Inc()
		return err
	}
	e.net.now = tNext
	if e.OnAdvance != nil && tNext > t0 {
		e.OnAdvance(e, t0, tNext)
	}

	due := e.collectDue(tNext)
	for _, c := range due {
		id := FlowID(c.id)
		fn := e.takeDone(id)
		f, err := e.net.Flow(id)
		if err != nil {
			return err
		}
		e.tel.flowSeconds.Observe(tNext - f.Start)
		e.seedLinks = append(e.seedLinks, f.Path...)
		e.noteShardFlow(id, -1)
		if err := e.net.RemoveFlow(id); err != nil {
			return err
		}
		e.tel.flowCompletions.Inc()
		e.dirty = true
		if fn != nil {
			fn(e, id)
		}
	}
	completions := len(due)
	if completions > 0 {
		e.tel.flowsActive.Set(float64(e.net.NumActive()))
		for _, i := range sh.busy {
			sh.shards[i].gHeap.Set(float64(sh.shards[i].completions.Len()))
		}
	}

	timers := 0
	for {
		at, ok := e.events.PeekTime()
		if !ok || at > e.Now()+timeSlack {
			break
		}
		ev, _ := e.events.Pop()
		ev.Fn()
		timers++
	}
	e.tel.events.Add(uint64(max(completions+timers, 1)))
	return nil
}

// SetPureCallbacks declares that every completion callback registered
// with this engine is pure with respect to the simulation: it may read
// the engine (Now, telemetry) and record results externally, but never
// adds, cancels, reconfigures, or otherwise mutates engine or network
// state. The engine uses the promise to run bounded virtual-time
// lookahead windows: isolated shards retire several completions per
// barrier round, and the callbacks — though fired in the exact order and
// at the exact virtual times of a run without windows — fire after other
// shards have already simulated past them, which only an effect-free
// callback cannot observe. Without the promise, lookahead stays off
// whenever any callback is registered.
func (e *Engine) SetPureCallbacks(pure bool) { e.pureCallbacks = pure }

// setDone records a completion callback for id.
func (e *Engine) setDone(id FlowID, fn func(*Engine, FlowID)) {
	for int(id) >= len(e.onDone) {
		e.onDone = append(e.onDone, nil)
	}
	if e.onDone[id] == nil {
		e.onDoneCount++
	}
	e.onDone[id] = fn
}

// takeDone removes and returns id's completion callback, if any.
func (e *Engine) takeDone(id FlowID) func(*Engine, FlowID) {
	if int(id) >= len(e.onDone) {
		return nil
	}
	fn := e.onDone[id]
	if fn != nil {
		e.onDoneCount--
	}
	e.onDone[id] = nil
	return fn
}

// recompute re-rates the flows affected by the accumulated flow-set
// changes and re-projects their completion times. With scoping in
// force, the affected set is the dirty components: every flow reachable
// from the seeds through shared links. Each component goes to the
// allocator of its home shard, concurrently across shards. A lone shard
// and disciplines without shard clones get the union of the components
// in one call, and disciplines that cannot localize decline
// AllocateScoped and are re-run globally.
func (e *Engine) recompute() {
	sh := e.sh
	now := e.clock.Now()
	scoped := !e.dirtyAll
	perShard := false
	if scoped {
		// Clones derive lazily, at the first recompute that can actually
		// use them: runs that only ever take the union path never pay. A
		// lone shard has nothing to run concurrently, so it takes the
		// union path too: one allocator call per recompute, not one per
		// component.
		if len(sh.shards) > 1 {
			sh.ensureClones(e.alloc)
			perShard = sh.clones
		}
		e.splitDirty(!perShard)
	} else {
		e.ids = e.net.ActiveInto(e.ids[:0])
	}
	e.saveOldRates()
	var ok bool
	if perShard {
		ok = e.allocComponents()
	} else {
		// An empty dirty set is still offered to the allocator:
		// separable disciplines accept it as a no-op, while decliners
		// like Homa must re-rank the whole network on every change.
		ok = e.alloc.AllocateScoped(e.net, e.ids)
	}
	if !ok {
		if scoped {
			// Undo any partial rate writes of a declining clone — the
			// saved rates cover every flow it may have touched — then
			// widen to the full active set.
			for i, id := range e.ids {
				e.net.flows[id].Rate = e.oldRates[i]
			}
			e.ids = e.net.ActiveInto(e.ids[:0])
			e.saveOldRates()
		}
		e.alloc.Allocate(e.net)
	} else if scoped && len(e.ids) > 0 {
		e.tel.scopedRecomputes.Inc()
		e.tel.dirtyFlows.Add(uint64(len(e.ids)))
	}
	e.reproject(now)
	e.clearSeeds()
	if e.audit != nil {
		e.audit(now, e.ids)
	}
}

func (e *Engine) saveOldRates() {
	e.oldRates = e.oldRates[:0]
	for _, id := range e.ids {
		e.oldRates = append(e.oldRates, e.net.flows[id].Rate)
	}
}

// reproject materializes Remaining and re-keys the completion heap for
// every flow whose rate actually changed. Flows whose recomputed rate is
// bitwise unchanged are left alone — their lazy projection (and heap
// key) is still exact, which is what makes scoped and full recomputes
// bit-for-bit identical: both skip exactly the flows whose rates agree.
func (e *Engine) reproject(now float64) {
	for i, id := range e.ids {
		f := &e.net.flows[id]
		if !f.active {
			continue
		}
		old := e.oldRates[i]
		if f.Rate == old {
			continue
		}
		if old > 0 && now > f.lastSet {
			f.Remaining -= old * (now - f.lastSet)
			if f.Remaining < 0 {
				f.Remaining = 0
			}
		}
		f.lastSet = now
		if f.Rate > 0 {
			e.heapFix(id, now+f.Remaining/f.Rate)
		} else {
			e.heapRemove(id)
		}
	}
	e.publishHeapGauges()
}

func (e *Engine) clearSeeds() {
	e.seedFlows = e.seedFlows[:0]
	e.seedLinks = e.seedLinks[:0]
	e.dirtyAll = false
}

// observeUtilization refreshes the per-allocator port-utilization gauges
// after a rate recomputation: the max and mean utilization across the
// busy links touched by the last allocation (under a full recompute that
// is every busy link; under a scoped one, the dirty component's links —
// the only ones whose utilization can have changed).
func (e *Engine) observeUtilization() {
	ep := e.epoch.Add(1)
	for len(e.linkSeen) < len(e.net.linkFlows) {
		e.linkSeen = append(e.linkSeen, 0)
	}
	var sum, max float64
	n := 0
	for _, id := range e.ids {
		f := &e.net.flows[id]
		if !f.active {
			continue
		}
		for _, l := range f.Path {
			if e.linkSeen[l] == ep || len(e.net.linkFlows[l]) == 0 {
				continue
			}
			e.linkSeen[l] = ep
			u := e.net.LinkUtilization(l)
			sum += u
			if u > max {
				max = u
			}
			n++
		}
	}
	gMax, gMean := e.tel.utilGauges(e.alloc.Name())
	gMax.Set(max)
	if n > 0 {
		gMean.Set(sum / float64(n))
	} else {
		gMean.Set(0)
	}
}

// timeSlack absorbs floating-point drift when comparing event times.
const timeSlack = 1e-9

// completionSlack is the residual size below which a flow counts as
// finished: absolute floor plus a relative component for huge transfers.
func completionSlack(f *Flow) float64 {
	return 1e-6 + f.Size*1e-12
}
