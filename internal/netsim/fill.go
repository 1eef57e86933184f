package netsim

import (
	"math"
	"slices"
	"sync/atomic"

	"saba/internal/topology"
)

// markEpoch issues process-unique epochs for the mark-array pattern the
// allocators use ("was this link/app seen during the current pass?"):
// a mark array holds the epoch of its last visit and a slot is fresh
// iff it equals the pass's epoch. Drawing epochs from one global atomic
// counter makes every pass's epoch unique across all allocator
// instances and goroutines, which is what lets shard clones share mark
// arrays (cloneScoped): a stale value written by another clone can
// never collide with a fresh epoch. Epoch values never influence
// allocation arithmetic, so global sequencing cannot perturb results.
var markEpoch atomic.Int64

// LocalRate is the rate assigned to flows whose source and destination are
// the same host (they never touch the network).
const LocalRate = 1e15 // bits/sec

// ClassSpec describes one scheduling class at a link.
//
// PerFlow=true means every flow in the class carries Weight on its own
// (per-flow max-min: the class contributes Weight × count to the link's
// demand). PerFlow=false means the class has a fixed aggregate Weight
// split equally among its backlogged flows (a WFQ queue).
type ClassSpec struct {
	Weight  float64
	PerFlow bool
}

// Classifier maps flows to scheduling classes per link. Implementations
// encode the arbitration discipline: per-flow fairness, WFQ queues, etc.
type Classifier interface {
	// LinkClasses returns the class table of a link. The result must be
	// stable for the duration of one Fill run.
	LinkClasses(l topology.LinkID) []ClassSpec
	// FlowClass returns the index (into LinkClasses(l)) of the class that
	// flow f occupies at link l.
	FlowClass(f *Flow, l topology.LinkID) int
}

// FlatClassifier implements plain per-flow max-min: one per-flow class of
// weight 1 at every link.
type FlatClassifier struct{}

var flatClasses = []ClassSpec{{Weight: 1, PerFlow: true}}

// LinkClasses returns the single per-flow class.
func (FlatClassifier) LinkClasses(topology.LinkID) []ClassSpec { return flatClasses }

// FlowClass puts every flow in class 0.
func (FlatClassifier) FlowClass(*Flow, topology.LinkID) int { return 0 }

// Filler computes max-min-style rate allocations via progressive filling
// (water-filling) generalized to hierarchical per-link classes: in each
// round every contended link advertises a fair share per class, every
// unfixed flow takes the minimum entitlement along its path, and the
// flows at the global minimum are frozen there. State is reused across
// calls to avoid per-allocation garbage.
type Filler struct {
	capRem  []float64
	sumW    []float64 // weighted demand of unfixed flows per link
	cnt     [][]int32 // per link, per class: unfixed-flow count
	touched []topology.LinkID
	inRun   []bool   // per link: appears in the current Run
	pending []FlowID // flows registered in the current run
	freeze  []FlowID // per-round scratch: flows of the bottleneck class

	// The bottleneck search keeps one cached minimum per link — its
	// smallest per-class unit entitlement — so each round scans one float
	// per touched link instead of every class of every link, and a freeze
	// refreshes only the links the frozen flows cross. Scanning keyv in
	// registration order with a strict < reproduces the exhaustive scan's
	// pick (including exact ties) bit for bit.
	keyv     []float64 // per touched index: cached min unit entitlement
	bestc    []int32   // per touched index: arg-min class; -1 = no demand
	cntFlat  []int32   // per link: unfixed-flow count (flat fast path)
	tidx     []int32   // per link: index into touched (valid while inRun)
	mark     []int64   // per link: last freeze round that refreshed its key
	affected []topology.LinkID

	// A classed Run asks the Classifier once per touched link and once
	// per (flow, hop), at registration, and the water-fill reads these
	// records from then on. linkCls[l] is link l's class table for the
	// run; posCls[l][j] is the class of the run flow at linkFlows[l][j]
	// (stale for flows outside the run, which the inRun flag screens
	// out). Allocated for classed Fillers only (newClassedFiller, or the
	// first classed Run); the flat path never touches them.
	linkCls [][]ClassSpec
	posCls  [][]int32

	slack []FlowID // top-up pass scratch

	// additive makes fix() add to existing rates instead of overwriting —
	// the WFQ top-up passes raise already-allocated flows using residual
	// capacity.
	additive bool
}

// NewFiller creates a Filler sized for the network's link count.
func NewFiller(net *Network) *Filler {
	nl := len(net.Topology().Links())
	return &Filler{
		capRem:  make([]float64, nl),
		sumW:    make([]float64, nl),
		cnt:     make([][]int32, nl),
		cntFlat: make([]int32, nl),
		inRun:   make([]bool, nl),
		tidx:    make([]int32, nl),
		mark:    make([]int64, nl),
	}
}

// newClassedFiller creates a Filler for a discipline that runs classed
// fills, with its class records allocated up front so that shard
// clones share them (cloneScoped).
func newClassedFiller(net *Network) *Filler {
	fl := NewFiller(net)
	fl.allocClassRecords()
	return fl
}

func (fl *Filler) allocClassRecords() {
	fl.linkCls = make([][]ClassSpec, len(fl.capRem))
	fl.posCls = make([][]int32, len(fl.capRem))
}

// cloneScoped returns a Filler for concurrent scoped runs that SHARES
// the parent's per-link arrays (capRem, sumW, cnt, cntFlat, inRun,
// tidx, mark, and the class records linkCls and posCls) and owns only
// the per-run compact scratch. Sharing is safe because every
// concurrent caller operates on a distinct link-connected component —
// two components share no link by construction, so element writes to
// the per-link arrays never collide — and pass freshness is tracked
// through globally unique markEpoch values, so stale marks left by
// another clone can never alias a live pass. This is what the sharded
// engine hands each allocator clone (shard.go): clones cost O(1) memory
// instead of re-allocating (and re-growing) the link-sized arrays each.
func (fl *Filler) cloneScoped() *Filler {
	return &Filler{
		capRem:   fl.capRem,
		sumW:     fl.sumW,
		cnt:      fl.cnt,
		cntFlat:  fl.cntFlat,
		inRun:    fl.inRun,
		tidx:     fl.tidx,
		mark:     fl.mark,
		linkCls:  fl.linkCls,
		posCls:   fl.posCls,
		additive: fl.additive,
	}
}

// Reset initializes remaining capacities from the network (honoring
// overrides). Call once per allocation epoch, before the first Run.
func (fl *Filler) Reset(net *Network) {
	for i := range fl.capRem {
		fl.capRem[i] = net.Capacity(topology.LinkID(i))
	}
}

// ResetFor initializes remaining capacities for exactly the links crossed
// by the given flows — the scoped equivalent of Reset. When ids is a
// union of link-connected components (so no other flow touches those
// links) a subsequent Run over ids reads only the links reset here,
// making the allocation epoch O(Σ path length) instead of O(links).
func (fl *Filler) ResetFor(net *Network, ids []FlowID) {
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		for _, l := range f.Path {
			fl.capRem[l] = net.Capacity(l)
		}
	}
}

// Run allocates rates for the given flows against the remaining
// capacities, decrementing them so subsequent Runs see only the leftover
// (strict-priority composition). Flows not in ids are ignored entirely;
// their demand must already be reflected in capRem by a previous Run.
func (fl *Filler) Run(net *Network, ids []FlowID, cls Classifier) {
	if len(ids) == 0 {
		return
	}
	if _, flat := cls.(FlatClassifier); flat {
		// The four flat disciplines dominate simulation time; the
		// specialized loop below computes bit-identical results (single
		// class of weight 1, so every float expression degenerates to the
		// same operations) without interface dispatch or per-class state.
		fl.runFlat(net, ids)
		return
	}
	if fl.posCls == nil {
		fl.allocClassRecords()
	}
	// Register per-link class occupancy for this run, recording every
	// class lookup the water-fill below needs.
	fl.touched = fl.touched[:0]
	fl.pending = fl.pending[:0]
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		if f.stalled {
			// Detached by link failure with no live path: transmits
			// nothing until the Engine re-attaches it.
			f.Rate = 0
			continue
		}
		if len(f.Path) == 0 {
			f.Rate = LocalRate
			continue
		}
		if !fl.additive {
			f.Rate = 0
		}
		f.inRun = true
		fl.pending = append(fl.pending, id)
		for k, l := range f.Path {
			if !fl.inRun[l] {
				fl.inRun[l] = true
				fl.tidx[l] = int32(len(fl.touched))
				fl.touched = append(fl.touched, l)
				specs := cls.LinkClasses(l)
				fl.linkCls[l] = specs
				n := len(net.linkFlows[l])
				fl.posCls[l] = slices.Grow(fl.posCls[l][:0], n)[:n]
				nc := len(specs)
				if cap(fl.cnt[l]) < nc {
					fl.cnt[l] = make([]int32, nc)
				} else {
					fl.cnt[l] = fl.cnt[l][:nc]
					for i := range fl.cnt[l] {
						fl.cnt[l][i] = 0
					}
				}
			}
			c := cls.FlowClass(f, l)
			fl.posCls[l][f.pathPos[k]] = int32(c)
			fl.cnt[l][c] += int32(f.Mult)
		}
	}
	for _, l := range fl.touched {
		fl.sumW[l] = fl.demand(l)
	}

	// Generalized water-filling over (link, class) groups. A flow's
	// per-connection entitlement is the minimum over its path of the
	// link's per-class unit share: share_l × W_q (per-flow class) or
	// share_l × W_q / count_q (WFQ queue), with share_l = capRem_l /
	// weighted demand_l and count_q weighted by connection multiplicity;
	// the flow's rate is that unit entitlement times its Mult. The key
	// observation making this fast: the globally minimal unit entitlement
	// is attained by the (link, class) pair minimizing the per-class
	// share, and *every* unfixed flow in that pair has exactly that unit
	// entitlement (it crosses the pair, so it cannot be higher; the pair
	// is the global minimum, so it cannot be lower). Each round therefore
	// scans the per-link cached minima, freezes a whole class at once,
	// and re-keys only the links the frozen flows cross.
	fl.keyv = fl.keyv[:0]
	fl.bestc = fl.bestc[:0]
	for _, l := range fl.touched {
		key, q := fl.linkKey(l)
		fl.keyv = append(fl.keyv, key)
		fl.bestc = append(fl.bestc, int32(q))
	}
	remaining := len(fl.pending)
	for remaining > 0 {
		best := math.Inf(1)
		ti := -1
		for i, key := range fl.keyv {
			if key < best {
				best, ti = key, i
			}
		}
		if ti < 0 {
			break // no demand left (cannot happen while remaining > 0)
		}
		bl := fl.touched[ti]
		bc := fl.bestc[ti]
		// Collect then freeze the bottleneck class (fix mutates counters).
		fl.freeze = fl.freeze[:0]
		pc := fl.posCls[bl]
		for j, fid := range net.linkFlows[bl] {
			if pc[j] != bc {
				continue
			}
			if f := &net.flows[fid]; f.active && f.inRun {
				fl.freeze = append(fl.freeze, fid)
			}
		}
		ep := markEpoch.Add(1)
		fl.affected = fl.affected[:0]
		for _, fid := range fl.freeze {
			f := &net.flows[fid]
			fl.fix(f, best*float64(f.Mult))
			remaining--
			for _, l := range f.Path {
				if fl.mark[l] != ep {
					fl.mark[l] = ep
					fl.affected = append(fl.affected, l)
				}
			}
		}
		if len(fl.freeze) == 0 {
			break // inconsistent counters; avoid spinning
		}
		for _, l := range fl.affected {
			ati := int(fl.tidx[l])
			key, q := fl.linkKey(l)
			fl.keyv[ati], fl.bestc[ati] = key, int32(q)
		}
	}

	// Clear run markers.
	for _, l := range fl.touched {
		fl.inRun[l] = false
	}
	if remaining > 0 {
		for _, id := range fl.pending {
			net.flows[id].inRun = false
		}
	}
}

// topUp makes a classed fill work-conserving. Freezing whole (link,
// class) groups at their minimum entitlement can leave a queue below
// capacity when its flows turn out to be bottlenecked elsewhere, so
// after the main Run over ids, flows with residual capacity on every
// link of their path re-enter additive fills over the residual
// capacities until none can be raised (bounded passes; each strictly
// consumes residual capacity). Residual capacity only shrinks across
// passes, so a flow without slack never regains it: from the second
// pass on only the previous pass's slack flows are rescanned, filtered
// in place, which offers every pass exactly the flows a full rescan
// would.
func (fl *Filler) topUp(net *Network, ids []FlowID, cls Classifier) {
	const maxTopUps = 4
	cand := ids
	for pass := 0; pass < maxTopUps; pass++ {
		slack := fl.slack[:0]
	scan:
		for _, id := range cand {
			f := &net.flows[id]
			if !f.active || len(f.Path) == 0 {
				continue
			}
			for _, l := range f.Path {
				if fl.capRem[l] <= 1e-6 {
					continue scan
				}
			}
			slack = append(slack, id)
		}
		fl.slack = slack
		if len(slack) == 0 {
			return
		}
		fl.additive = true
		fl.Run(net, slack, cls)
		fl.additive = false
		cand = slack
	}
}

// runFlat is Run specialized to FlatClassifier: per-flow max-min with one
// weight-1 class per link. cnt/demand/linkKey collapse to a single
// per-link connection count, and a link's key is capRem/count directly
// (share × weight 1.0 and weight-1 demand sums are bitwise identical to
// the generic expressions).
func (fl *Filler) runFlat(net *Network, ids []FlowID) {
	fl.touched = fl.touched[:0]
	fl.pending = fl.pending[:0]
	for _, id := range ids {
		f := &net.flows[id]
		if !f.active {
			continue
		}
		if f.stalled {
			f.Rate = 0
			continue
		}
		if len(f.Path) == 0 {
			f.Rate = LocalRate
			continue
		}
		if !fl.additive {
			f.Rate = 0
		}
		f.inRun = true
		fl.pending = append(fl.pending, id)
		for _, l := range f.Path {
			if !fl.inRun[l] {
				fl.inRun[l] = true
				fl.tidx[l] = int32(len(fl.touched))
				fl.touched = append(fl.touched, l)
				fl.cntFlat[l] = 0
			}
			fl.cntFlat[l] += int32(f.Mult)
		}
	}
	fl.keyv = fl.keyv[:0]
	for _, l := range fl.touched {
		n := fl.cntFlat[l]
		fl.sumW[l] = float64(n)
		if n <= 0 {
			fl.keyv = append(fl.keyv, math.Inf(1))
			continue
		}
		c := fl.capRem[l]
		if c < 0 {
			c = 0
		}
		fl.keyv = append(fl.keyv, c/float64(n))
	}
	remaining := len(fl.pending)
	for remaining > 0 {
		best := math.Inf(1)
		ti := -1
		for i, key := range fl.keyv {
			if key < best {
				best, ti = key, i
			}
		}
		if ti < 0 {
			break // no demand left (cannot happen while remaining > 0)
		}
		bl := fl.touched[ti]
		fl.freeze = fl.freeze[:0]
		for _, fid := range net.linkFlows[bl] {
			f := &net.flows[fid]
			if f.active && f.inRun {
				fl.freeze = append(fl.freeze, fid)
			}
		}
		ep := markEpoch.Add(1)
		fl.affected = fl.affected[:0]
		for _, fid := range fl.freeze {
			f := &net.flows[fid]
			rate := best * float64(f.Mult)
			if fl.additive {
				f.Rate += rate
			} else {
				f.Rate = rate
			}
			f.inRun = false
			remaining--
			for _, l := range f.Path {
				r := fl.capRem[l] - rate
				if r < 0 {
					r = 0
				}
				fl.capRem[l] = r
				fl.cntFlat[l] -= int32(f.Mult)
				fl.sumW[l] -= 1 * float64(f.Mult)
				if fl.mark[l] != ep {
					fl.mark[l] = ep
					fl.affected = append(fl.affected, l)
				}
			}
		}
		if len(fl.freeze) == 0 {
			break // inconsistent counters; avoid spinning
		}
		for _, l := range fl.affected {
			ati := int(fl.tidx[l])
			n := fl.cntFlat[l]
			if n <= 0 || fl.sumW[l] <= 1e-12 {
				fl.keyv[ati] = math.Inf(1)
				continue
			}
			c := fl.capRem[l]
			if c < 0 {
				c = 0
			}
			fl.keyv[ati] = c / fl.sumW[l]
		}
	}
	for _, l := range fl.touched {
		fl.inRun[l] = false
	}
	if remaining > 0 {
		for _, id := range fl.pending {
			net.flows[id].inRun = false
		}
	}
}

// fix assigns the final rate to f and removes its demand from every link
// it crosses, maintaining the weighted-demand sums incrementally.
func (fl *Filler) fix(f *Flow, rate float64) {
	if fl.additive {
		f.Rate += rate
	} else {
		f.Rate = rate
	}
	f.inRun = false
	for k, l := range f.Path {
		fl.capRem[l] -= rate
		if fl.capRem[l] < 0 {
			fl.capRem[l] = 0
		}
		c := fl.posCls[l][f.pathPos[k]]
		fl.cnt[l][c] -= int32(f.Mult)
		spec := fl.linkCls[l][c]
		if spec.PerFlow {
			fl.sumW[l] -= spec.Weight * float64(f.Mult)
		} else if fl.cnt[l][c] <= 0 {
			fl.sumW[l] -= spec.Weight
		}
	}
}

// linkKey returns a link's minimum per-class unit entitlement and the
// class attaining it (ties prefer the lowest class, matching an
// ascending scan), or (+Inf, -1) when the link has no unfixed demand —
// the sentinel keeps spent links out of the bottleneck scan for free.
func (fl *Filler) linkKey(l topology.LinkID) (float64, int) {
	w := fl.sumW[l]
	if w <= 1e-12 {
		return math.Inf(1), -1
	}
	c := fl.capRem[l]
	if c < 0 {
		c = 0
	}
	share := c / w
	specs := fl.linkCls[l]
	best := -1.0
	bq := -1
	for q, n := range fl.cnt[l] {
		if n <= 0 {
			continue
		}
		ent := share * specs[q].Weight
		if !specs[q].PerFlow {
			ent /= float64(n)
		}
		if bq < 0 || ent < best {
			best, bq = ent, q
		}
	}
	if bq < 0 {
		return math.Inf(1), -1
	}
	return best, bq
}

// demand returns the weighted demand of unfixed run-flows at link l.
func (fl *Filler) demand(l topology.LinkID) float64 {
	specs := fl.linkCls[l]
	w := 0.0
	for c, n := range fl.cnt[l] {
		if n <= 0 {
			continue
		}
		if specs[c].PerFlow {
			w += specs[c].Weight * float64(n)
		} else {
			w += specs[c].Weight
		}
	}
	return w
}
