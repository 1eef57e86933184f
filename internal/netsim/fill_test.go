package netsim

import (
	"math"
	"testing"
	"time"

	"saba/internal/topology"
)

// flipClassifier answers class 0 the first time it is asked about a
// flow and class 1 on every later query — an intentionally inconsistent
// classifier. Run asks about each (flow, hop) once, at registration, and
// works from its own records afterwards, so the answers a flow got on
// its hops stay consistent through the fill however the classifier
// changes its mind.
type flipClassifier struct {
	seen    map[FlowID]bool
	queries int
}

func (c *flipClassifier) LinkClasses(topology.LinkID) []ClassSpec {
	return []ClassSpec{{Weight: 1, PerFlow: true}, {Weight: 1, PerFlow: true}}
}

func (c *flipClassifier) FlowClass(f *Flow, l topology.LinkID) int {
	c.queries++
	if !c.seen[f.ID] {
		c.seen[f.ID] = true
		return 0
	}
	return 1
}

func TestFillerRunEmptyFreezeBreaks(t *testing.T) {
	net, hosts := testbed(t, 4)
	var ids []FlowID
	hops := 0
	for i := 0; i < 3; i++ {
		id, err := net.AddFlow(0, FlowSpec{Src: hosts[i], Dst: hosts[3], Bits: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		f, _ := net.Flow(id)
		hops += len(f.Path)
	}
	fl := NewFiller(net)
	fl.Reset(net)
	cls := &flipClassifier{seen: map[FlowID]bool{}}
	done := make(chan struct{})
	go func() {
		fl.Run(net, ids, cls)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run spun under a flipping classifier")
	}
	if cls.queries != hops {
		t.Errorf("classifier asked %d times, want once per hop (%d)", cls.queries, hops)
	}
	// Every flow is per-flow max-min on a shared downlink of 100: a
	// third each, whatever classes the flows were given.
	load := map[topology.LinkID]float64{}
	for _, id := range ids {
		f, _ := net.Flow(id)
		if f.inRun {
			t.Errorf("flow %d left marked inRun", id)
		}
		if math.Abs(f.Rate-100.0/3) > 1e-9 {
			t.Errorf("flow %d: rate %g, want 100/3", id, f.Rate)
		}
		for _, l := range f.Path {
			load[l] += f.Rate
		}
	}
	for l, r := range load {
		if r > net.Capacity(l)+1e-9 {
			t.Errorf("link %d carries %g over capacity %g", l, r, net.Capacity(l))
		}
	}
}

func TestFillerZeroCapacityLink(t *testing.T) {
	net, hosts := testbed(t, 3)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[2], Bits: 1000})
	b, _ := net.AddFlow(0, FlowSpec{Src: hosts[1], Dst: hosts[2], Bits: 1000})
	fl := NewFiller(net)
	fl.Reset(net)
	// Starve the shared downlink outright. Progressive filling must still
	// terminate, freezing both flows at rate zero.
	fa, _ := net.Flow(a)
	fl.capRem[fa.Path[len(fa.Path)-1]] = 0
	fl.Run(net, []FlowID{a, b}, FlatClassifier{})
	for _, id := range []FlowID{a, b} {
		f, _ := net.Flow(id)
		if f.Rate != 0 {
			t.Errorf("flow %d: rate %g on a zero-capacity bottleneck, want 0", id, f.Rate)
		}
		if f.inRun {
			t.Errorf("flow %d left marked inRun", id)
		}
	}
	// The generic (classed) path must agree.
	fl.Reset(net)
	fl.capRem[fa.Path[len(fa.Path)-1]] = 0
	fl.Run(net, []FlowID{a, b}, constClassifier{})
	for _, id := range []FlowID{a, b} {
		f, _ := net.Flow(id)
		if f.Rate != 0 {
			t.Errorf("classed path, flow %d: rate %g, want 0", id, f.Rate)
		}
	}
}

// constClassifier is a two-queue WFQ-style classifier putting every flow
// in queue 0; it forces the generic (non-flat) Run path.
type constClassifier struct{}

func (constClassifier) LinkClasses(topology.LinkID) []ClassSpec {
	return []ClassSpec{{Weight: 3, PerFlow: false}, {Weight: 1, PerFlow: false}}
}
func (constClassifier) FlowClass(*Flow, topology.LinkID) int { return 0 }

func TestFillerCapacityOverrideRejectsNonPositive(t *testing.T) {
	net, _ := testbed(t, 2)
	links := net.Topology().Links()
	if err := net.SetCapacityOverride(links[0].ID, 0); err == nil {
		t.Error("zero-capacity override accepted")
	}
	if err := net.SetCapacityOverride(links[0].ID, -5); err == nil {
		t.Error("negative-capacity override accepted")
	}
	if err := net.SetCapacityOverride(topology.LinkID(len(links)), 10); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := net.SetCapacityOverride(links[0].ID, 40); err != nil {
		t.Fatal(err)
	}
	if got := net.Capacity(links[0].ID); got != 40 {
		t.Errorf("override not applied: capacity %g, want 40", got)
	}
	net.ClearCapacityOverride(links[0].ID)
	if got := net.Capacity(links[0].ID); got != links[0].Capacity {
		t.Errorf("override not cleared: capacity %g, want %g", got, links[0].Capacity)
	}
}

func TestFillerAdditiveTopUpComposes(t *testing.T) {
	net, hosts := testbed(t, 3)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[2], Bits: 1000})
	b, _ := net.AddFlow(0, FlowSpec{Src: hosts[1], Dst: hosts[2], Bits: 1000})
	fl := NewFiller(net)

	// First pass: only b runs, but its uplink is throttled to 10, leaving
	// 90 of the shared downlink unconsumed.
	fl.Reset(net)
	fb, _ := net.Flow(b)
	fl.capRem[fb.Path[0]] = 10
	fl.Run(net, []FlowID{b}, FlatClassifier{})
	if fb.Rate != 10 {
		t.Fatalf("throttled flow rate %g, want 10", fb.Rate)
	}

	// Top-up pass: a already holds a rate from elsewhere; additive mode
	// must add its entitlement (the residual 90) instead of overwriting.
	fa, _ := net.Flow(a)
	fa.Rate = 5
	fl.additive = true
	fl.Run(net, []FlowID{a}, FlatClassifier{})
	fl.additive = false
	if math.Abs(fa.Rate-95) > 1e-9 {
		t.Errorf("additive top-up: rate %g, want 95 (5 kept + 90 residual)", fa.Rate)
	}

	// Non-additive runs overwrite.
	fl.Reset(net)
	fl.Run(net, []FlowID{a, b}, FlatClassifier{})
	if math.Abs(fa.Rate-50) > 1e-9 || math.Abs(fb.Rate-50) > 1e-9 {
		t.Errorf("plain rerun: rates %g/%g, want 50/50", fa.Rate, fb.Rate)
	}
}

func TestFillerResetForTouchesOnlyPathLinks(t *testing.T) {
	net, hosts := testbed(t, 4)
	a, _ := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 1000})
	fl := NewFiller(net)
	for i := range fl.capRem {
		fl.capRem[i] = -1 // poison
	}
	fl.ResetFor(net, []FlowID{a})
	fa, _ := net.Flow(a)
	onPath := map[topology.LinkID]bool{}
	for _, l := range fa.Path {
		onPath[l] = true
		if fl.capRem[l] != net.Capacity(l) {
			t.Errorf("path link %d not reset: %g", l, fl.capRem[l])
		}
	}
	for i, c := range fl.capRem {
		if !onPath[topology.LinkID(i)] && c != -1 {
			t.Errorf("off-path link %d touched by ResetFor", i)
		}
	}
}
