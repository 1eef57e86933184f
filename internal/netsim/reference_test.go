package netsim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"saba/internal/sim"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// refEngine is the differential gates' oracle: a deliberately naive
// fluid simulator over the same Network and allocators as Engine that
// shares none of Engine's event machinery. It keeps no completion heap,
// no dirty set, no shards and no lookahead: every change to the flow
// set or the fabric triggers one full Allocate, the next completion is
// a linear scan over every flow, and timers live in a slice scanned for
// the earliest. It follows the model's arithmetic exactly as Engine
// documents it — Remaining materialized only when a rate changes
// bitwise, a flow's completion at lastSet + Remaining/Rate, the
// completionSlack due rule — so the two agree bit for bit, and any
// divergence is a bug in one of them.
type refEngine struct {
	net     *Network
	alloc   Allocator
	now     float64
	dirty   bool
	timers  []refTimer
	seq     int
	onDone  map[FlowID]func(FlowID)
	stalled []FlowID // in stall order; entries may be stale, like Engine.stalled
	audit   func(t float64, ids []FlowID)
}

type refTimer struct {
	at  float64
	seq int
	fn  func()
}

func newRefEngine(net *Network, alloc Allocator) *refEngine {
	return &refEngine{net: net, alloc: alloc, onDone: map[FlowID]func(FlowID){}}
}

func (r *refEngine) Now() float64 { return r.now }

func (r *refEngine) At(t float64, fn func()) error {
	if t < r.now {
		return fmt.Errorf("%w: %g < %g", sim.ErrPastEvent, t, r.now)
	}
	r.timers = append(r.timers, refTimer{at: t, seq: r.seq, fn: fn})
	r.seq++
	return nil
}

func (r *refEngine) AddFlows(specs []FlowSpec, onDone func(FlowID)) ([]FlowID, error) {
	ids, err := r.net.AddFlows(r.now, specs)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if onDone != nil {
			r.onDone[id] = onDone
		}
		if r.net.flows[id].stalled {
			r.stalled = append(r.stalled, id)
		}
	}
	r.dirty = true
	return ids, nil
}

func (r *refEngine) CancelFlow(id FlowID) error {
	if err := r.net.RemoveFlow(id); err != nil {
		return err
	}
	delete(r.onDone, id)
	r.dirty = true
	return nil
}

func (r *refEngine) MarkDirty() { r.dirty = true }

func (r *refEngine) SetShards(int) {}

// FailLinks takes the links down, then disrupts every attached flow
// whose path crosses a dead link, in ascending FlowID order: progress
// under the old rate is materialized, and the flow moves to a live path
// or stalls at zero rate.
func (r *refEngine) FailLinks(ids ...topology.LinkID) error {
	var firstErr error
	for _, l := range ids {
		if _, err := r.net.top.FailLink(l); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for id := range r.net.flows {
		f := &r.net.flows[id]
		if !f.active || !slices.ContainsFunc(f.Path, func(l topology.LinkID) bool { return !r.net.top.LinkUp(l) }) {
			continue
		}
		if f.Rate > 0 && r.now > f.lastSet {
			f.Remaining = f.RemainingAt(r.now)
		}
		f.lastSet = r.now
		f.Rate = 0
		r.net.detach(f, FlowID(id))
		r.dirty = true
		if path, err := r.net.routeLive(f.Src, f.Dst); err == nil {
			r.net.attach(f, FlowID(id), path)
			continue
		}
		f.stalled = true
		r.stalled = append(r.stalled, FlowID(id))
	}
	return firstErr
}

// RestoreLinks brings the links back and resumes, in stall order, every
// stalled flow that has a live path again.
func (r *refEngine) RestoreLinks(ids ...topology.LinkID) error {
	var firstErr error
	for _, l := range ids {
		if _, err := r.net.top.RestoreLink(l); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var keep []FlowID
	for _, id := range r.stalled {
		f := &r.net.flows[id]
		if !f.active || !f.stalled {
			continue
		}
		path, err := r.net.routeLive(f.Src, f.Dst)
		if err != nil {
			keep = append(keep, id)
			continue
		}
		f.stalled = false
		f.lastSet = r.now
		r.net.attach(f, id, path)
		r.dirty = true
	}
	r.stalled = keep
	return firstErr
}

func (r *refEngine) Run(horizon float64) error {
	for r.net.NumActive() > 0 || len(r.timers) > 0 {
		if err := r.step(horizon); err != nil {
			return err
		}
	}
	return nil
}

// recompute re-rates every active flow with one full Allocate and
// materializes the progress of each flow whose rate changed.
func (r *refEngine) recompute() {
	ids := r.net.ActiveIDs()
	old := make([]float64, len(ids))
	for i, id := range ids {
		old[i] = r.net.flows[id].Rate
	}
	r.alloc.Allocate(r.net)
	for i, id := range ids {
		f := &r.net.flows[id]
		if f.Rate == old[i] {
			continue
		}
		if old[i] > 0 && r.now > f.lastSet {
			f.Remaining -= old[i] * (r.now - f.lastSet)
			if f.Remaining < 0 {
				f.Remaining = 0
			}
		}
		f.lastSet = r.now
	}
	if r.audit != nil {
		r.audit(r.now, ids)
	}
}

// finishAt is the virtual time a flow completes at its current rate.
func finishAt(f *Flow) float64 { return f.lastSet + f.Remaining/f.Rate }

func (r *refEngine) step(horizon float64) error {
	if r.dirty {
		r.recompute()
		r.dirty = false
	}
	var running []FlowID
	tNext := math.Inf(1)
	for id := range r.net.flows {
		if f := &r.net.flows[id]; f.active && f.Rate > 0 {
			running = append(running, FlowID(id))
			tNext = math.Min(tNext, finishAt(f))
		}
	}
	for _, tm := range r.timers {
		tNext = math.Min(tNext, tm.at)
	}
	if math.IsInf(tNext, 1) {
		if r.net.NumActive() > 0 {
			return ErrDeadlock
		}
		return nil
	}
	if tNext > horizon {
		return fmt.Errorf("%w: next event at %gs > horizon %gs", ErrHorizon, tNext, horizon)
	}
	r.now = tNext
	r.net.now = tNext

	// Retire in (finish time, id) order up to the first flow that is
	// neither finished by tNext nor within completionSlack of it.
	slices.SortFunc(running, func(a, b FlowID) int {
		if c := cmp.Compare(finishAt(&r.net.flows[a]), finishAt(&r.net.flows[b])); c != 0 {
			return c
		}
		return int(a - b)
	})
	var done []FlowID
	for _, id := range running {
		f := &r.net.flows[id]
		if finishAt(f) > tNext && f.RemainingAt(tNext) > completionSlack(f) {
			break
		}
		done = append(done, id)
	}
	for _, id := range done {
		f := &r.net.flows[id]
		f.Remaining = 0
		f.lastSet = tNext
	}
	for _, id := range done {
		fn := r.onDone[id]
		delete(r.onDone, id)
		if err := r.net.RemoveFlow(id); err != nil {
			return err
		}
		r.dirty = true
		if fn != nil {
			fn(id)
		}
	}

	// Fire every timer due now, earliest (time, seq) first, including
	// timers the fired ones schedule.
	for {
		k := -1
		for i, tm := range r.timers {
			if k < 0 || tm.at < r.timers[k].at || (tm.at == r.timers[k].at && tm.seq < r.timers[k].seq) {
				k = i
			}
		}
		if k < 0 || r.timers[k].at > r.now+timeSlack {
			return nil
		}
		fn := r.timers[k].fn
		r.timers = slices.Delete(r.timers, k, k+1)
		fn()
	}
}

// simulator is the surface the differential scenarios drive: the
// reference engine, or the engine under test through engineSim.
type simulator interface {
	Now() float64
	At(t float64, fn func()) error
	AddFlows(specs []FlowSpec, onDone func(FlowID)) ([]FlowID, error)
	CancelFlow(id FlowID) error
	FailLinks(ids ...topology.LinkID) error
	RestoreLinks(ids ...topology.LinkID) error
	MarkDirty()
	SetShards(n int)
	Run(horizon float64) error
}

// engineSim adapts Engine to simulator.
type engineSim struct{ *Engine }

func (d engineSim) At(t float64, fn func()) error {
	return d.Engine.At(t, func(*Engine) { fn() })
}

func (d engineSim) AddFlows(specs []FlowSpec, onDone func(FlowID)) ([]FlowID, error) {
	var cb func(*Engine, FlowID)
	if onDone != nil {
		cb = func(_ *Engine, id FlowID) { onDone(id) }
	}
	return d.Engine.AddFlows(specs, cb)
}

// target selects what runs a scenario: the reference engine, or the
// engine under test at a shard count (the SetShards argument).
type target struct {
	ref    bool
	shards int
	// impure withholds SetPureCallbacks from the engine, which keeps
	// lookahead windows off.
	impure bool
	// wrap, when set, wraps the allocator (mutation tests).
	wrap func(Allocator) Allocator
}

var reference = target{ref: true}

func engineAt(shards int) target { return target{shards: shards} }

func (tg target) String() string {
	if tg.ref {
		return "reference"
	}
	return fmt.Sprintf("shards=%d", tg.shards)
}

// shardTargets are the shard counts every differential gate runs the
// engine at: one shard, two, one per pod, and one more than the pods
// (ownership folds by modulo and one shard owns no pod).
func shardTargets(top *topology.Topology) []target {
	return []target{engineAt(1), engineAt(2), engineAt(-1), engineAt(top.Partition().NumParts() + 1)}
}

// runOut is one scenario run's outcome.
type runOut struct {
	done  []float64           // completion time per admission; -1 = cancelled
	ids   []FlowID            // FlowID per admission (slot recycling order)
	order []int               // admissions in completion-callback order
	reg   *telemetry.Registry // the engine's registry (unused by the reference)
	audit *auditor
}

// start wires net and alloc into the target's simulator, with the
// invariant audit installed.
func (tg target) start(net *Network, alloc Allocator, reg *telemetry.Registry) (simulator, *auditor) {
	if tg.wrap != nil {
		alloc = tg.wrap(alloc)
	}
	a := newAuditor(net)
	if tg.ref {
		r := newRefEngine(net, alloc)
		r.audit = a.recomputed
		return r, a
	}
	e := NewEngine(net, alloc)
	e.SetTelemetry(reg)
	e.SetShards(tg.shards)
	// Scenario callbacks only read Now and write scenario-local state.
	e.SetPureCallbacks(!tg.impure)
	e.audit = a.recomputed
	return engineSim{e}, a
}

// recorder tracks completions per admission and feeds completions and
// cancellations to the audit.
type recorder struct {
	d     simulator
	out   runOut
	idxOf map[FlowID]int
}

func newRecorder(d simulator, a *auditor, reg *telemetry.Registry) *recorder {
	return &recorder{d: d, out: runOut{reg: reg, audit: a}, idxOf: map[FlowID]int{}}
}

func (rc *recorder) complete(id FlowID) {
	i := rc.idxOf[id]
	rc.out.done[i] = rc.d.Now()
	rc.out.order = append(rc.out.order, i)
	rc.out.audit.completed(id, rc.d.Now())
}

// admit schedules a batch admission at virtual time at.
func (rc *recorder) admit(at float64, specs []FlowSpec) error {
	return rc.d.At(at, func() {
		ids, err := rc.d.AddFlows(specs, rc.complete)
		if err != nil {
			panic(err)
		}
		for _, id := range ids {
			rc.idxOf[id] = len(rc.out.ids)
			rc.out.ids = append(rc.out.ids, id)
			rc.out.done = append(rc.out.done, -1)
		}
	})
}

// cancel cancels admission i if it is still running.
func (rc *recorder) cancel(i int) {
	if i < len(rc.out.ids) && rc.out.done[i] < 0 {
		if rc.d.CancelFlow(rc.out.ids[i]) == nil {
			rc.out.audit.forget(rc.out.ids[i])
		}
	}
}

// auditor checks the fluid model's invariants after every rate
// recomputation: no link carries more than its capacity, no flow has
// negative Remaining, and at completion a flow has delivered its Size
// within completionSlack. Delivered bytes are integrated independently
// from the rates each recomputation leaves in force; the integral also
// carries the rounding of virtual time itself (rate × ulp per segment
// end), which for a loopback flow at local-memory rate exceeds
// completionSlack on its own. Engine window recomputes call recomputed
// concurrently, each over its own shard's flows and links, so per-flow
// state is a fixed array indexed by FlowID and only the violation list
// takes the lock.
type auditor struct {
	net   *Network
	flows []auditFlow

	mu    sync.Mutex
	fails []string
}

// auditFlow is one flow slot's delivery ledger: sent bits up to since,
// the rate in force from then on, and the time-rounding bound of sent.
type auditFlow struct{ sent, since, rate, rounding float64 }

// segment returns the bits sent at rate over [since, t] and their bound
// from rounding both ends to float64 virtual time.
func segment(rate, since, t float64) (sent, rounding float64) {
	return rate * (t - since), 2 * rate * (math.Nextafter(t, math.Inf(1)) - t)
}

// auditSlots bounds the FlowIDs an audited scenario may use.
const auditSlots = 1 << 12

func newAuditor(net *Network) *auditor {
	return &auditor{net: net, flows: make([]auditFlow, auditSlots)}
}

func (a *auditor) failf(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.fails) < 10 {
		a.fails = append(a.fails, fmt.Sprintf(format, args...))
	}
}

func (a *auditor) recomputed(t float64, ids []FlowID) {
	for _, id := range ids {
		if int(id) >= len(a.flows) {
			a.failf("flow %d beyond the audit's %d slots", id, len(a.flows))
			continue
		}
		f := &a.net.flows[id]
		if !f.active {
			continue
		}
		if f.Remaining < 0 {
			a.failf("t=%g flow %d: Remaining %g < 0", t, id, f.Remaining)
		}
		if rec := &a.flows[id]; f.Rate != rec.rate {
			sent, rounding := segment(rec.rate, rec.since, t)
			rec.sent += sent
			rec.rounding += rounding
			rec.rate, rec.since = f.Rate, t
		}
		for _, l := range f.Path {
			sum := 0.0
			for _, g := range a.net.linkFlows[l] {
				sum += a.net.flows[g].Rate
			}
			if c := a.net.Capacity(l); sum > c*(1+1e-9) {
				a.failf("t=%g link %d: rates sum to %g over capacity %g", t, l, sum, c)
			}
		}
	}
}

// completed checks a finished flow's delivered bits against its Size.
// The flow's slot still holds its Size: completion callbacks run right
// after removal, before any admission can recycle the slot.
func (a *auditor) completed(id FlowID, t float64) {
	if int(id) >= len(a.flows) {
		return // reported by recomputed
	}
	rec := a.flows[id]
	f := &a.net.flows[id]
	sent, rounding := segment(rec.rate, rec.since, t)
	sent += rec.sent
	if math.Abs(sent-f.Size) > completionSlack(f)+rec.rounding+rounding {
		a.failf("t=%g flow %d: delivered %g of %g bits", t, id, sent, f.Size)
	}
	a.flows[id] = auditFlow{}
}

// forget drops a cancelled flow's ledger.
func (a *auditor) forget(id FlowID) {
	if int(id) < len(a.flows) {
		a.flows[id] = auditFlow{}
	}
}

// check fails the test on any recorded violation.
func (a *auditor) check(t testing.TB, ctx string) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, msg := range a.fails {
		t.Errorf("%s: audit: %s", ctx, msg)
	}
}

// runDiffs lists where two runs differ: completion times bit for bit,
// the FlowID each admission got, and the completion-callback order.
func runDiffs(want, got runOut) []string {
	if len(want.done) != len(got.done) {
		return []string{fmt.Sprintf("admission counts differ: %d vs %d", len(want.done), len(got.done))}
	}
	var diffs []string
	for i := range want.done {
		if math.Float64bits(want.done[i]) != math.Float64bits(got.done[i]) {
			diffs = append(diffs, fmt.Sprintf("admission %d: completion %v (reference) vs %v; diff %g",
				i, want.done[i], got.done[i], got.done[i]-want.done[i]))
		}
	}
	if !slices.Equal(want.ids, got.ids) {
		diffs = append(diffs, fmt.Sprintf("FlowIDs differ: %v (reference) vs %v", want.ids, got.ids))
	}
	if !slices.Equal(want.order, got.order) {
		diffs = append(diffs, fmt.Sprintf("completion order differs: %v (reference) vs %v", want.order, got.order))
	}
	return diffs
}

// assertSameRun fails the test unless got reproduces want exactly.
func assertSameRun(t *testing.T, ctx string, want, got runOut) {
	t.Helper()
	for _, d := range runDiffs(want, got) {
		t.Errorf("%s %s", ctx, d)
	}
}

// scaleRates is a test allocator wrapper that multiplies the rates of
// the flows each call re-rates by factor after the inner allocator ran.
// It keeps ShardClone so the engine still takes its component path.
type scaleRates struct {
	Allocator
	factor float64
}

func (s *scaleRates) Allocate(net *Network) {
	s.Allocator.Allocate(net)
	s.scale(net, net.ActiveIDs())
}

func (s *scaleRates) AllocateScoped(net *Network, ids []FlowID) bool {
	if !s.Allocator.AllocateScoped(net, ids) {
		return false
	}
	s.scale(net, ids)
	return true
}

func (s *scaleRates) scale(net *Network, ids []FlowID) {
	for _, id := range ids {
		net.flows[id].Rate *= s.factor
	}
}

func (s *scaleRates) ShardClone() Allocator {
	c := s.Allocator.(ShardableAllocator).ShardClone()
	if c == nil {
		return nil
	}
	return &scaleRates{Allocator: c, factor: s.factor}
}

// nudgeRate is a test allocator wrapper that moves the rate of the
// lowest-numbered positive-rate flow of every call up by one ulp.
type nudgeRate struct{ Allocator }

func (n *nudgeRate) Allocate(net *Network) {
	n.Allocator.Allocate(net)
	n.nudge(net, net.ActiveIDs())
}

func (n *nudgeRate) AllocateScoped(net *Network, ids []FlowID) bool {
	if !n.Allocator.AllocateScoped(net, ids) {
		return false
	}
	n.nudge(net, ids)
	return true
}

func (n *nudgeRate) nudge(net *Network, ids []FlowID) {
	for _, id := range ids {
		if f := &net.flows[id]; f.Rate > 0 {
			f.Rate = math.Nextafter(f.Rate, math.Inf(1))
			return
		}
	}
}

func (n *nudgeRate) ShardClone() Allocator {
	c := n.Allocator.(ShardableAllocator).ShardClone()
	if c == nil {
		return nil
	}
	return &nudgeRate{c}
}

// TestAuditTripsOnInflatedRates: rates inflated by 1% over a saturating
// workload must trip the capacity audit, in the reference and in the
// engine at every shard count.
func TestAuditTripsOnInflatedRates(t *testing.T) {
	top := diffFabric(t)
	for _, tg := range append([]target{reference}, shardTargets(top)...) {
		tg.wrap = func(a Allocator) Allocator { return &scaleRates{Allocator: a, factor: 1.01} }
		out := runDifferentialScenario(t, tg, "ideal-maxmin", 1, scenario{})
		out.audit.mu.Lock()
		n := len(out.audit.fails)
		out.audit.mu.Unlock()
		if n == 0 {
			t.Errorf("%v: rates inflated by 1%% passed the audit", tg)
		}
	}
}

// TestDifferentialCatchesOneULP: an engine whose allocator moves one
// rate per call by one ulp must fail the differential against the
// reference, at every shard count.
func TestDifferentialCatchesOneULP(t *testing.T) {
	top := diffFabric(t)
	want := runDifferentialScenario(t, reference, "ideal-maxmin", 1, scenario{})
	for _, tg := range shardTargets(top) {
		tg.wrap = func(a Allocator) Allocator { return &nudgeRate{a} }
		got := runDifferentialScenario(t, tg, "ideal-maxmin", 1, scenario{})
		if len(runDiffs(want, got)) == 0 {
			t.Errorf("%v: a one-ulp rate perturbation went unnoticed", tg)
		}
	}
}

// TestReferenceAgreesOnErrors: the reference reports the engine's
// deadlock and horizon errors.
func TestReferenceAgreesOnErrors(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	r := newRefEngine(net, NewIdealMaxMin(net))
	hosts := top.Hosts()
	if _, err := r.AddFlows([]FlowSpec{{Src: hosts[0], Dst: hosts[5], Bits: 1e6}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(1e-9); !errors.Is(err, ErrHorizon) {
		t.Fatalf("short horizon: %v, want ErrHorizon", err)
	}
	if err := r.At(0, func() {}); err != nil {
		t.Fatal(err)
	}
	r.alloc = zeroRates{}
	r.dirty = true
	if err := r.Run(math.Inf(1)); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("zero rates: %v, want ErrDeadlock", err)
	}
}

// zeroRates rates every flow 0.
type zeroRates struct{}

func (zeroRates) Name() string { return "zero" }
func (zeroRates) Allocate(net *Network) {
	for i := range net.flows {
		net.flows[i].Rate = 0
	}
}
func (z zeroRates) AllocateScoped(net *Network, _ []FlowID) bool { z.Allocate(net); return true }
