package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// coreCables enumerates the bidirectional switch-to-switch cables of a
// fabric as [forward, reverse] link-ID pairs, in deterministic order.
// Failing both directions together models a cable pull, the dominant
// datacenter failure mode.
func coreCables(top *topology.Topology) [][]topology.LinkID {
	nodes := top.Nodes()
	reverse := map[[2]topology.NodeID]topology.LinkID{}
	for _, l := range top.Links() {
		reverse[[2]topology.NodeID{l.From, l.To}] = l.ID
	}
	var cables [][]topology.LinkID
	for _, l := range top.Links() {
		if l.From >= l.To {
			continue
		}
		if nodes[l.From].Kind != topology.Switch || nodes[l.To].Kind != topology.Switch {
			continue
		}
		if r, ok := reverse[[2]topology.NodeID{l.To, l.From}]; ok {
			cables = append(cables, []topology.LinkID{l.ID, r})
		}
	}
	return cables
}

// TestDifferentialWithFlaps is the fault-path extension of the
// differential gate: with a seeded link-flap schedule disrupting,
// rerouting, and stalling flows mid-run, the engine must still produce
// bit-for-bit the reference engine's completion times, for every
// allocator at every shard count — and the whole scenario must replay
// identically.
func TestDifferentialWithFlaps(t *testing.T) {
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				outs := diffAgainstReference(t, name, seed, scenario{flaps: true})
				again := runDifferentialScenario(t, engineAt(1), name, seed, scenario{flaps: true})
				assertSameRun(t, fmt.Sprintf("seed %d replay", seed), outs[0], again)
				reg := outs[0].reg
				if reg.Counter("netsim.link_failures").Value() == 0 {
					t.Errorf("seed %d: flap schedule failed no links", seed)
				}
				if reg.Counter("netsim.link_restores").Value() != reg.Counter("netsim.link_failures").Value() {
					t.Errorf("seed %d: restores do not match failures", seed)
				}
			}
		})
	}
}

// TestStallAndResumeOnRestore: cutting a host's only uplink stalls its
// flow at rate zero; restoring the link resumes it, and the completion
// time reflects exactly the outage window — no permanent stall.
func TestStallAndResumeOnRestore(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	reg := telemetry.NewRegistry()
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(reg)

	hosts := top.Hosts()
	doneAt := -1.0
	// Alone on a 1000 bps fabric the flow runs at 1000: 2000 bits → 2s.
	id, err := e.AddFlow(FlowSpec{Src: hosts[0], Dst: hosts[1], Bits: 2000, Mult: 1},
		func(e *Engine, _ FlowID) { doneAt = e.Now() })
	if err != nil {
		t.Fatal(err)
	}
	uplink := top.OutLinks(hosts[0])[0]
	if err := e.At(1.0, func(e *Engine) {
		if err := e.FailLink(uplink); err != nil {
			t.Errorf("FailLink: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.At(2.0, func(e *Engine) {
		if e.StalledFlows() != 1 {
			t.Errorf("StalledFlows = %d mid-outage, want 1", e.StalledFlows())
		}
		f, err := net.Flow(id)
		if err != nil {
			t.Errorf("Flow(%d): %v", id, err)
			return
		}
		if !f.Stalled() || f.Rate != 0 {
			t.Errorf("stalled flow: Stalled=%v Rate=%g, want true/0", f.Stalled(), f.Rate)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.At(3.0, func(e *Engine) {
		if err := e.RestoreLink(uplink); err != nil {
			t.Errorf("RestoreLink: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	// 1s of transfer before the cut (1000 bits), 2s stalled, then the
	// remaining 1000 bits: completion at t=4 exactly.
	if math.Abs(doneAt-4.0) > 1e-9 {
		t.Errorf("completion at %g, want 4.0 (2s outage inserted)", doneAt)
	}
	if e.StalledFlows() != 0 {
		t.Errorf("StalledFlows = %d after restore, want 0", e.StalledFlows())
	}
	if v := reg.Counter("netsim.flow_stalls").Value(); v != 1 {
		t.Errorf("flow_stalls = %d, want 1", v)
	}
	if v := reg.Counter("netsim.flow_resumes").Value(); v != 1 {
		t.Errorf("flow_resumes = %d, want 1", v)
	}
}

// TestRerouteKeepsFlowRunning: failing a middle hop of an inter-pod path
// with a live alternate reroutes the flow immediately — no stall, and the
// flow still completes.
func TestRerouteKeepsFlowRunning(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	reg := telemetry.NewRegistry()
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(reg)

	hosts := top.Hosts()
	doneAt := -1.0
	id, err := e.AddFlow(FlowSpec{Src: hosts[0], Dst: hosts[len(hosts)-1], Bits: 2000, Mult: 1},
		func(e *Engine, _ FlowID) { doneAt = e.Now() })
	if err != nil {
		t.Fatal(err)
	}
	var failed topology.LinkID
	if err := e.At(0.5, func(e *Engine) {
		f, err := net.Flow(id)
		if err != nil {
			t.Fatalf("Flow(%d): %v", id, err)
		}
		failed = f.Path[len(f.Path)/2]
		if err := e.FailLink(failed); err != nil {
			t.Fatalf("FailLink: %v", err)
		}
		if e.StalledFlows() != 0 {
			t.Errorf("flow stalled despite a live alternate")
		}
		for _, l := range f.Path {
			if l == failed {
				t.Errorf("rerouted path still crosses failed link %d", l)
			}
			if !top.LinkUp(l) {
				t.Errorf("rerouted path crosses down link %d", l)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("flow never completed after reroute")
	}
	if v := reg.Counter("netsim.flow_reroutes").Value(); v != 1 {
		t.Errorf("flow_reroutes = %d, want 1", v)
	}
	if v := reg.Counter("netsim.flow_stalls").Value(); v != 0 {
		t.Errorf("flow_stalls = %d, want 0", v)
	}
}

// TestEngineFailSwitch exercises switch-level failure end to end: traffic
// across pods survives a mid-run spine failure and completes once (or
// before) the switch returns.
func TestEngineFailSwitch(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	reg := telemetry.NewRegistry()
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(reg)

	hosts := top.Hosts()
	rng := rand.New(rand.NewSource(17))
	open := map[FlowID]bool{}
	for i := 0; i < 12; i++ {
		src := hosts[rng.Intn(len(hosts)/2)]
		dst := hosts[len(hosts)/2+rng.Intn(len(hosts)/2)]
		id, err := e.AddFlow(FlowSpec{Src: src, Dst: dst, Bits: float64(500 + rng.Intn(3000)), Mult: 1},
			func(e *Engine, id FlowID) { delete(open, id) })
		if err != nil {
			t.Fatal(err)
		}
		open[id] = true
	}
	// Identify a transit switch from one flow's current path.
	var spine topology.NodeID
	for id := range open {
		f, err := net.Flow(id)
		if err != nil {
			t.Fatal(err)
		}
		lk, _ := top.Link(f.Path[len(f.Path)/2])
		spine = lk.From
		break
	}
	if err := e.At(0.4, func(e *Engine) {
		if err := e.FailSwitch(spine); err != nil {
			t.Errorf("FailSwitch(%d): %v", spine, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.At(1.4, func(e *Engine) {
		if err := e.RestoreSwitch(spine); err != nil {
			t.Errorf("RestoreSwitch(%d): %v", spine, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Errorf("%d flows never completed across the switch failure", len(open))
	}
	if e.StalledFlows() != 0 {
		t.Errorf("StalledFlows = %d at end, want 0", e.StalledFlows())
	}
	if reg.Counter("netsim.link_failures").Value() == 0 {
		t.Error("FailSwitch recorded no link failures")
	}
	if reg.Counter("netsim.link_restores").Value() != reg.Counter("netsim.link_failures").Value() {
		t.Error("restores do not match failures after RestoreSwitch")
	}
}
