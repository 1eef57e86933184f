package netsim

import (
	"encoding/binary"
	"sort"

	"saba/internal/decentral"
	"saba/internal/solver"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// DecentralConfig tunes the decentralized allocator.
type DecentralConfig struct {
	// Params tune the per-port price iteration (gain, damping, epsilon,
	// managed fraction). The zero value selects the protocol defaults.
	Params decentral.Params
}

// Decentral is the sixth allocator: Saba's Eq. 2 sensitivity weighting
// achieved with no controller in the loop. Each contended port runs the
// decentralized price iteration (internal/decentral) that end hosts
// would execute against the port's broadcast telemetry signal — the
// simulator fast-forwards the per-beacon dynamics to their fixed point,
// which is the per-port Eq. 2 optimum — and the resulting per-app
// weights drive the same generalized water-fill WFQ uses. Because hosts
// self-pace (virtual queues, not switch queues), the port is not limited
// by the switch's queue count: every application gets its own weight,
// the ∞-queue column of Fig. 11b.
//
// Per-port solutions are a pure function of the (sorted) application set
// sharing the port, so they are cached across allocations and shared
// across ports — the decentralized analogue of the controller's
// cross-port solution cache.
type Decentral struct {
	par    decentral.Params
	filler *Filler
	objs   map[AppID]solver.Objective

	// Cross-port solution cache: distinct app set → converged port state.
	sols map[string]*portSol

	// Per-link solution in force, epoch-gated: linkSol[l] is meaningful
	// to the classifier only when linkEpoch[l] == epoch (set while that
	// link was touched by the current allocation); it persists afterwards
	// so heartbeats can re-broadcast the last price.
	linkSol   []*portSol
	linkEpoch []int64
	epoch     int64

	channel *decentral.Channel

	// cfgGen counts objective-model generations: SetObjective bumps it,
	// and shard clones compare their snapshot (srcGen) against the
	// parent's (src) on every allocation to invalidate their private
	// solution caches. objs itself is shared with clones — it is only
	// written from serial engine phases.
	cfgGen uint64
	src    *Decentral
	srcGen uint64

	// Scratch, reused across allocations.
	appsBuf []AppID
	appMark []int64
	appEp   int64
	keyBuf  []byte
	links   []int // touched links this allocation
	sigBuf  []decentral.PortSignal

	rounds      *telemetry.Counter // decentral.rounds
	solves      *telemetry.Counter // decentral.solves
	cacheHits   *telemetry.Counter // decentral.solve_cache_hits
	unconverged *telemetry.Counter // decentral.unconverged

	nRounds, nSolves, nHits, nUnconverged uint64
}

// portSol is one converged per-port iteration: the app set it was solved
// for (ascending), the Filler class table carrying the weights, and the
// signal state hosts would have observed at the fixed point.
type portSol struct {
	apps      []AppID
	specs     []ClassSpec
	price     float64
	rounds    int
	converged bool
}

// NewDecentral creates the decentralized allocator for net.
func NewDecentral(net *Network, cfg DecentralConfig) *Decentral {
	d := &Decentral{
		par:       cfg.Params,
		filler:    newClassedFiller(net),
		objs:      make(map[AppID]solver.Objective),
		sols:      make(map[string]*portSol),
		linkSol:   make([]*portSol, len(net.Topology().Links())),
		linkEpoch: make([]int64, len(net.Topology().Links())),
	}
	d.SetTelemetry(telemetry.Default)
	return d
}

// SetTelemetry rebinds the allocator's instruments to reg.
func (d *Decentral) SetTelemetry(reg *telemetry.Registry) {
	d.rounds = reg.Counter("decentral.rounds")
	d.solves = reg.Counter("decentral.solves")
	d.cacheHits = reg.Counter("decentral.solve_cache_hits")
	d.unconverged = reg.Counter("decentral.unconverged")
}

// Name implements Allocator.
func (*Decentral) Name() string { return "saba-decentral" }

// SetObjective installs (or replaces) an application's sensitivity
// model. Applications without one iterate with the moderate default
// (decentral.DefaultCoeffs). Changing a model invalidates the solution
// cache.
func (d *Decentral) SetObjective(app AppID, o solver.Objective) {
	d.objs[app] = o
	clear(d.sols)
	d.epoch++  // stale per-link solutions must not be reused
	d.cfgGen++ // shard clones invalidate their caches on next allocation
}

// SetChannel attaches the simulated in-band telemetry channel; after
// every allocation the touched ports' signals are broadcast into it for
// sabalib instances to poll.
func (d *Decentral) SetChannel(c *decentral.Channel) { d.channel = c }

// DecentralStats is a plain-value snapshot of the allocator's counters.
type DecentralStats struct {
	Rounds      uint64 // total price-iteration rounds across all solves
	Solves      uint64 // distinct per-port iterations run
	CacheHits   uint64 // allocations served from the solution cache
	Unconverged uint64 // solves that hit MaxIters before epsilon
}

// Stats returns the allocator's counters.
func (d *Decentral) Stats() DecentralStats {
	return DecentralStats{Rounds: d.nRounds, Solves: d.nSolves, CacheHits: d.nHits, Unconverged: d.nUnconverged}
}

// Allocate implements Allocator.
func (d *Decentral) Allocate(net *Network) {
	d.AllocateScoped(net, net.ActiveIDs())
}

// AllocateScoped implements Allocator. Each contended link's weight
// vector depends only on the set of applications crossing it — the
// decentralized iteration is a pure per-port function — and the
// water-fill is separable across link-connected components, so running
// both over only the dirty component reproduces the global result
// bit-for-bit.
func (d *Decentral) AllocateScoped(net *Network, ids []FlowID) bool {
	if d.src != nil && d.srcGen != d.src.cfgGen {
		clear(d.sols)
		d.srcGen = d.src.cfgGen
	}
	// Phase 1: per contended link, the fixed point of the decentralized
	// price iteration over the distinct applications sharing it.
	d.epoch++
	ep := d.epoch
	d.links = d.links[:0]
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active || len(f.Path) == 0 {
			continue
		}
		for _, l := range f.Path {
			if d.linkEpoch[l] == ep {
				continue
			}
			d.linkEpoch[l] = ep
			d.linkSol[l] = d.solveLink(net, l)
			d.links = append(d.links, int(l))
		}
	}

	// Phase 2: generalized water-fill with one fixed-weight class per
	// application, plus WFQ-style top-up passes so the discipline stays
	// work-conserving (structurally incapable of oversubscribing a link).
	cls := decentralClassifier{d}
	d.filler.ResetFor(net, ids)
	d.filler.Run(net, ids, cls)
	d.filler.topUp(net, ids, cls)

	d.publish(net)
	return true
}

// solveLink returns the converged port solution for the applications
// currently sharing link l, from the cache when the same app set was
// solved before (on this or any other port).
func (d *Decentral) solveLink(net *Network, l topology.LinkID) *portSol {
	// Distinct applications on the link, ascending. NoApp (-1) counts as
	// its own application (unattributed traffic gets the default model).
	d.appEp++
	aep := d.appEp
	d.appsBuf = d.appsBuf[:0]
	for _, fid := range net.FlowsOn(l) {
		slot := int(net.flows[fid].App) + 1 // NoApp occupies slot 0
		for slot >= len(d.appMark) {
			d.appMark = append(d.appMark, 0)
		}
		if d.appMark[slot] == aep {
			continue
		}
		d.appMark[slot] = aep
		d.appsBuf = append(d.appsBuf, net.flows[fid].App)
	}
	if len(d.appsBuf) == 0 {
		return nil
	}
	sort.Slice(d.appsBuf, func(i, j int) bool { return d.appsBuf[i] < d.appsBuf[j] })

	d.keyBuf = d.keyBuf[:0]
	for _, a := range d.appsBuf {
		d.keyBuf = binary.AppendVarint(d.keyBuf, int64(a))
	}
	if sol, ok := d.sols[string(d.keyBuf)]; ok {
		d.cacheHits.Inc()
		d.nHits++
		return sol
	}

	apps := append([]AppID(nil), d.appsBuf...)
	sol := &portSol{apps: apps, specs: make([]ClassSpec, len(apps))}
	if len(apps) == 1 {
		// A lone application keeps the whole managed capacity; no
		// iteration, no congestion price.
		sol.specs[0] = ClassSpec{Weight: 1, PerFlow: false}
		sol.converged = true
	} else {
		objs := make([]solver.Objective, len(apps))
		for i, a := range apps {
			if o, ok := d.objs[a]; ok {
				objs[i] = o
			} else {
				objs[i] = solver.PolyObjective{Coeffs: decentral.DefaultCoeffs}
			}
		}
		port := decentral.NewPort(objs, d.par)
		sol.converged = port.Solve()
		sol.rounds = port.Rounds()
		sol.price = port.Price()
		for i, w := range port.Weights() {
			sol.specs[i] = ClassSpec{Weight: w, PerFlow: false}
		}
		d.rounds.Add(uint64(port.Rounds()))
		d.nRounds += uint64(port.Rounds())
		if !sol.converged {
			d.unconverged.Inc()
			d.nUnconverged++
		}
	}
	d.solves.Inc()
	d.nSolves++
	d.sols[string(d.keyBuf)] = sol
	return sol
}

// publish broadcasts the touched ports' signals into the telemetry
// channel: observed utilization of the just-filled links plus the
// congestion price and population of each port's solution.
func (d *Decentral) publish(net *Network) {
	if d.channel == nil {
		return
	}
	d.sigBuf = d.sigBuf[:0]
	for _, li := range d.links {
		l := topology.LinkID(li)
		sol := d.linkSol[l]
		if sol == nil {
			continue
		}
		d.sigBuf = append(d.sigBuf, decentral.PortSignal{
			Port:  li,
			Util:  net.LinkUtilization(l),
			Price: sol.price,
			Apps:  len(sol.apps),
		})
	}
	d.channel.Publish(net.Now(), d.sigBuf)
}

// Heartbeat re-broadcasts the current utilization of every port with a
// known solution (and bumps the channel's sequence number even when no
// port qualifies), keeping the signal fresh through steady periods when
// no allocation runs. core.RunJobs schedules this on the telemetry
// beaconing period.
func (d *Decentral) Heartbeat(net *Network, now float64) {
	if d.channel == nil {
		return
	}
	d.sigBuf = d.sigBuf[:0]
	for li, sol := range d.linkSol {
		if sol == nil {
			continue
		}
		l := topology.LinkID(li)
		if len(net.FlowsOn(l)) == 0 {
			continue
		}
		d.sigBuf = append(d.sigBuf, decentral.PortSignal{
			Port:  li,
			Util:  net.LinkUtilization(l),
			Price: sol.price,
			Apps:  len(sol.apps),
		})
	}
	d.channel.Publish(now, d.sigBuf)
}

// ShardClone implements ShardableAllocator. Per-port solutions are a
// pure function of the sorted application set and the shared objective
// models, so per-clone solution caches stay bit-exact with the parent's
// — a cache hit and a fresh solve yield the same weights. Clones share
// objs (written only from serial phases), the atomic telemetry
// counters, and the filler's per-link arrays (cloneScoped); solution
// caches, per-link solution state and run scratch are owned, and
// the plain Stats() counters stay clone-local (only the parent's are
// reported). With a telemetry channel attached the allocator is not
// shardable — the per-recompute publish sequence must not depend on the
// shard count — so ShardClone returns nil and the engine keeps the union
// path.
func (d *Decentral) ShardClone() Allocator {
	if d.channel != nil {
		return nil
	}
	c := &Decentral{
		par:       d.par,
		filler:    d.filler.cloneScoped(),
		objs:      d.objs,
		sols:      make(map[string]*portSol),
		linkSol:   make([]*portSol, len(d.linkSol)),
		linkEpoch: make([]int64, len(d.linkEpoch)),
		src:       d,
		srcGen:    d.cfgGen,
	}
	c.rounds, c.solves, c.cacheHits, c.unconverged = d.rounds, d.solves, d.cacheHits, d.unconverged
	return c
}

// decentralClassifier adapts the per-link port solutions to the Filler:
// one fixed-weight class per application on solved links, the flat
// per-flow class anywhere the current allocation holds no solution.
type decentralClassifier struct{ d *Decentral }

func (c decentralClassifier) LinkClasses(l topology.LinkID) []ClassSpec {
	if c.d.linkEpoch[l] == c.d.epoch {
		if sol := c.d.linkSol[l]; sol != nil {
			return sol.specs
		}
	}
	return flatClasses
}

func (c decentralClassifier) FlowClass(f *Flow, l topology.LinkID) int {
	if c.d.linkEpoch[l] != c.d.epoch {
		return 0
	}
	sol := c.d.linkSol[l]
	if sol == nil {
		return 0
	}
	// Binary search the ascending app set.
	lo, hi := 0, len(sol.apps)
	for lo < hi {
		mid := (lo + hi) / 2
		if sol.apps[mid] < f.App {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sol.apps) && sol.apps[lo] == f.App {
		return lo
	}
	return 0
}
