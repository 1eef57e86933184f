package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// The golden-rate gate pins the exact bits of every rate the four
// progressive-filling disciplines assign. The reference-engine
// differentials run the engine and the reference with the same
// allocator, so a change inside an allocator that moves a rate by one
// ulp passes them; this test does not. A rewrite of the water-fill that
// is meant to be exact must leave the constants unchanged; one that
// moves them changes every simulated result downstream, and re-recording
// them is a decision to state, not a fix.

// goldenRates maps "topology/allocator" to the FNV-1a digest of
// math.Float64bits of every active flow's rate after a full Allocate and
// after each step of a seeded sequence of scoped allocations.
var goldenRates = map[string]uint64{
	"switch/fecn":            0xcf17c3a39c9b733f,
	"switch/ideal-maxmin":    0x393b640dfb355c14,
	"switch/wfq":             0xd7e7f8b58f965ba5,
	"switch/decentral":       0xad815914438c5245,
	"spineleaf/fecn":         0x27baa78820fe7154,
	"spineleaf/ideal-maxmin": 0xd91ee47166fcdedf,
	"spineleaf/wfq":          0x4445ea4439fb5ba2,
	"spineleaf/decentral":    0x9a20169de41c41e4,
}

func TestAllocatorGoldenRates(t *testing.T) {
	for _, topo := range []string{"switch", "spineleaf"} {
		for _, name := range []string{"fecn", "ideal-maxmin", "wfq", "decentral"} {
			key := topo + "/" + name
			t.Run(key, func(t *testing.T) {
				// Five seeds between them drive every discipline with
				// classes through a third top-up pass.
				got := uint64(14695981039346656037)
				for seed := int64(1); seed <= 5; seed++ {
					got = goldenRun(t, topo, name, seed, got)
				}
				want, ok := goldenRates[key]
				if !ok {
					t.Fatalf("no golden digest recorded; got %#x", got)
				}
				if got != want {
					t.Errorf("rate digest %#x, want %#x: an allocator's arithmetic changed", got, want)
				}
			})
		}
	}
}

// goldenRun drives one allocator over a seeded workload and folds the
// rates it produced into the digest h.
func goldenRun(t *testing.T, topo, name string, seed int64, h uint64) uint64 {
	top := diffFabric(t)
	if topo == "switch" {
		var err error
		top, err = topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 16, Queues: 8, LinkCapacity: 1000})
		if err != nil {
			t.Fatal(err)
		}
	}
	net := NewNetwork(top)
	reg := telemetry.NewRegistry()
	var alloc Allocator
	if name == "wfq" {
		w := NewWFQ(net)
		w.SetTelemetry(reg)
		goldenConfigureWFQ(t, w, top)
		alloc = w
	} else {
		alloc = diffAllocator(name, net, reg)
	}
	hosts := top.Hosts()
	rng := rand.New(rand.NewSource(seed))
	spec := func() FlowSpec {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if rng.Intn(12) > 0 {
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
		}
		return FlowSpec{
			Src: src, Dst: dst, Bits: 1e6,
			App:  AppID(rng.Intn(4)),
			PL:   rng.Intn(10) - 1, // -1 and 5..8 fall into DefaultQueue
			Mult: 1 + rng.Intn(3),
		}
	}
	// Throttled hosts leave residual capacity on the links they share,
	// which the WFQ-style disciplines reclaim in top-up passes.
	for _, th := range []struct {
		host int
		frac float64
	}{{1, 0.3}, {5, 0.55}, {8, 0.17}, {10, 0.8}, {12, 0.41}} {
		if err := net.ThrottleHost(hosts[th.host], th.frac); err != nil {
			t.Fatal(err)
		}
	}
	var live []FlowID
	add := func(s FlowSpec) FlowID {
		id, err := net.AddFlow(0, s)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		return id
	}
	for i := 0; i < 90; i++ {
		add(spec())
	}
	// A flow admitted while its only uplink is down stays stalled.
	up := hostUplink(t, top, hosts[3])
	if _, err := top.FailLink(up); err != nil {
		t.Fatal(err)
	}
	stalled := add(FlowSpec{Src: hosts[3], Dst: hosts[0], Bits: 1e6, PL: 1})
	if f, _ := net.Flow(stalled); !f.Stalled() {
		t.Fatal("flow over a failed uplink was not admitted stalled")
	}
	if _, err := top.RestoreLink(up); err != nil {
		t.Fatal(err)
	}

	fold := func() {
		for i := range net.flows {
			f := &net.flows[i]
			if !f.active {
				continue
			}
			h = (h ^ uint64(i)) * 1099511628211
			h = (h ^ math.Float64bits(f.Rate)) * 1099511628211
		}
	}
	alloc.Allocate(net)
	fold()
	for step := 0; step < 8; step++ {
		var seedLinks []topology.LinkID
		var seedFlows []FlowID
		for k := 0; k < 5 && len(live) > 1; k++ {
			i := rng.Intn(len(live))
			id := live[i]
			if id == stalled {
				continue
			}
			f, _ := net.Flow(id)
			seedLinks = append(seedLinks, f.Path...)
			if err := net.RemoveFlow(id); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, i, i+1)
		}
		for k := 0; k < 6; k++ {
			seedFlows = append(seedFlows, add(spec())) // reuses freed FlowIDs
		}
		comps := goldenComponents(net, seedLinks, seedFlows)
		if step%2 == 0 {
			for _, c := range comps {
				if !alloc.AllocateScoped(net, c) {
					t.Fatalf("%s declined a scoped allocation", name)
				}
			}
		} else {
			var union []FlowID
			for _, c := range comps {
				union = append(union, c...)
			}
			slices.Sort(union)
			if !alloc.AllocateScoped(net, union) {
				t.Fatalf("%s declined a scoped allocation", name)
			}
		}
		fold()
	}
	alloc.Allocate(net)
	fold()
	return h
}

// goldenConfigureWFQ configures two ports in three with eight queues;
// PLs 0..4 map to queues, everything else lands in a per-port default
// queue, and the remaining ports stay unconfigured (per-flow max-min).
func goldenConfigureWFQ(t *testing.T, w *WFQ, top *topology.Topology) {
	for _, lk := range top.Links() {
		if lk.ID%3 == 2 {
			continue
		}
		weights := make([]float64, 8)
		for q := range weights {
			weights[q] = float64(1+(q*5+int(lk.ID))%7) / 7
		}
		plq := map[int]int{}
		for pl := 0; pl < 5; pl++ {
			plq[pl] = (pl*3 + int(lk.ID)) % 8
		}
		cfg := PortConfig{Weights: weights, PLQueue: plq, DefaultQueue: int(lk.ID) % 8}
		if err := w.Configure(lk.ID, cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// hostUplink returns the first link of a route out of host h: its only
// uplink on the single switch and the spine-leaf fabric alike.
func hostUplink(t *testing.T, top *topology.Topology, h topology.NodeID) topology.LinkID {
	t.Helper()
	for _, other := range top.Hosts() {
		if other == h {
			continue
		}
		p, err := top.Route(h, other)
		if err != nil || len(p) == 0 {
			t.Fatal("no route out of host", h, err)
		}
		return p[0]
	}
	t.Fatal("single-host topology")
	return 0
}

// goldenComponents expands seed links and flows into the link-connected
// components they touch, each sorted ascending, in discovery order — the
// dirty sets the engine hands AllocateScoped. A stalled seed flow has no
// links and forms a component of its own.
func goldenComponents(net *Network, seedLinks []topology.LinkID, seedFlows []FlowID) [][]FlowID {
	flowSeen := map[FlowID]bool{}
	linkSeen := map[topology.LinkID]bool{}
	var comps [][]FlowID
	grow := func(comp []FlowID, stack []topology.LinkID) {
		for len(stack) > 0 {
			l := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, fid := range net.linkFlows[l] {
				if flowSeen[fid] {
					continue
				}
				flowSeen[fid] = true
				comp = append(comp, fid)
				for _, pl := range net.flows[fid].Path {
					if !linkSeen[pl] {
						linkSeen[pl] = true
						stack = append(stack, pl)
					}
				}
			}
		}
		if len(comp) > 0 {
			slices.Sort(comp)
			comps = append(comps, comp)
		}
	}
	for _, l := range seedLinks {
		if !linkSeen[l] {
			linkSeen[l] = true
			grow(nil, []topology.LinkID{l})
		}
	}
	for _, id := range seedFlows {
		f := &net.flows[id]
		if !f.active || flowSeen[id] {
			continue
		}
		flowSeen[id] = true
		var stack []topology.LinkID
		for _, l := range f.Path {
			if !linkSeen[l] {
				linkSeen[l] = true
				stack = append(stack, l)
			}
		}
		grow([]FlowID{id}, stack)
	}
	return comps
}
