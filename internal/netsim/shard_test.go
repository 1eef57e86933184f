package netsim

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// The sharded differential gates: at every shard count — one, two, one
// per pod, more than the pods — the engine (per-shard heaps, allocator
// clones, barrier-coordinated due collection, lookahead windows) must
// reproduce the reference engine bit for bit for every allocator, with
// and without a link-flap schedule and under forced full recomputes.

func TestDifferentialShardedMatchesSerial(t *testing.T) {
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				outs := diffAgainstReference(t, name, seed, scenario{})
				// Per-pod sharding must still scope (and clone) scopable
				// disciplines and never scope the others.
				perPod := outs[2].reg.Counter("netsim.scoped_recomputes").Value() > 0
				if perPod != scopable[name] {
					t.Errorf("seed %d: per-pod scoped recomputes = %v, want %v", seed, perPod, scopable[name])
				}
			}
		})
	}
}

func TestDifferentialShardedWithFlaps(t *testing.T) {
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				for _, out := range diffAgainstReference(t, name, seed, scenario{flaps: true}) {
					if out.reg.Counter("netsim.link_failures").Value() == 0 {
						t.Errorf("seed %d: flap schedule failed no links", seed)
					}
				}
			}
		})
	}
}

// Forced full recomputes (MarkDirty every 0.2 s of virtual time, on top
// of flaps) route every allocator through the engine's unscoped path
// and must still match the reference.
func TestDifferentialShardedFullRecompute(t *testing.T) {
	for _, name := range allocators {
		diffAgainstReference(t, name, 2, scenario{flaps: true, fullEvery: 0.2})
	}
}

// SetShards mid-run migrates projected completions between shard heaps
// without disturbing the outcome.
func TestSetShardsMidRunMigration(t *testing.T) {
	run := func(tg target) runOut {
		top := diffFabric(t)
		net := NewNetwork(top)
		reg := telemetry.NewRegistry()
		d, audit := tg.start(net, NewIdealMaxMin(net), reg)
		rc := newRecorder(d, audit, reg)
		hosts := top.Hosts()
		for i := 0; i < 24; i++ {
			src, dst := hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)]
			if src == dst {
				dst = hosts[(i*7+4)%len(hosts)]
			}
			spec := FlowSpec{Src: src, Dst: dst, Bits: float64(6400 + 320*i)}
			if err := rc.admit(0.01*float64(i), []FlowSpec{spec}); err != nil {
				t.Fatal(err)
			}
		}
		// Flip per-pod → one shard → three shards while flows are in
		// flight; each flip migrates the projected completions.
		for i, n := range []int{-1, 1, 3} {
			n := n
			if err := d.At(0.05+0.1*float64(i), func() { d.SetShards(n) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		audit.check(t, tg.String())
		return rc.out
	}
	assertSameRun(t, "mid-run reshard", run(reference), run(engineAt(1)))
}

// Satellite regression: netsim.flows_active and
// netsim.completion_heap_size carry the per-engine label the
// utilization gauges got earlier, so two engines running concurrently
// (sabaexp -parallel) no longer overwrite each other's readings.
func TestEngineGaugesCarryEngineLabel(t *testing.T) {
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 4, LinkCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mk := func(n int) *Engine {
		net := NewNetwork(top)
		e := NewEngine(net, NewIdealMaxMin(net))
		e.SetTelemetry(reg)
		hosts := top.Hosts()
		for i := 0; i < n; i++ {
			if _, err := e.AddFlow(FlowSpec{Src: hosts[i%3], Dst: hosts[3], Bits: 1e9}, nil); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	e1, e2 := mk(1), mk(3)
	if e1.engineID == e2.engineID {
		t.Fatalf("engines share id %q", e1.engineID)
	}
	g1 := reg.Gauge(telemetry.Label("netsim.flows_active", "engine", e1.engineID))
	g2 := reg.Gauge(telemetry.Label("netsim.flows_active", "engine", e2.engineID))
	if g1.Value() != 1 || g2.Value() != 3 {
		t.Errorf("flows_active gauges = %v, %v; want 1, 3 (per-engine, not shared)", g1.Value(), g2.Value())
	}
	unlabeled := reg.Gauge("netsim.flows_active")
	if unlabeled.Value() != 0 {
		t.Errorf("unlabeled flows_active gauge written: %v", unlabeled.Value())
	}
	// Step e1 up to a timer well before its flow completes: the step
	// projects the one flow, so e1's labeled heap gauge is written while
	// e2's (and the unlabeled name) never are.
	stop := false
	if err := e1.At(1e-6, func(*Engine) { stop = true }); err != nil {
		t.Fatal(err)
	}
	if err := e1.RunUntil(math.Inf(1), func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	h1 := reg.Gauge(telemetry.Label("netsim.completion_heap_size", "engine", e1.engineID))
	h2 := reg.Gauge(telemetry.Label("netsim.completion_heap_size", "engine", e2.engineID))
	if h1.Value() != 1 {
		t.Errorf("e1 heap gauge = %v, want 1 (its single projected flow)", h1.Value())
	}
	if h2.Value() != 0 {
		t.Errorf("e2 heap gauge = %v, want 0 (e2 never stepped)", h2.Value())
	}
	if reg.Gauge("netsim.completion_heap_size").Value() != 0 {
		t.Errorf("unlabeled completion_heap_size gauge written")
	}
}

// Partition-aware ownership: every flow lands on the heap of its source
// pod's shard when the shard count matches the pod count.
func TestShardOwnershipFollowsSourcePod(t *testing.T) {
	top := diffFabric(t) // 2 pods
	part := top.Partition()
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(telemetry.NewRegistry())
	e.SetShards(-1)
	if e.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2 (one per pod)", e.Shards())
	}
	hosts := top.Hosts()
	var ids []FlowID
	for i := 0; i < 8; i++ {
		src, dst := hosts[i], hosts[(i+5)%len(hosts)]
		id, err := e.AddFlow(FlowSpec{Src: src, Dst: dst, Bits: 1e6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// One step (up to a timer well before any completion) rates the flows
	// and projects completions onto the shard heaps.
	stop := false
	if err := e.At(1e-6, func(*Engine) { stop = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.Inf(1), func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f, err := e.net.Flow(id)
		if err != nil {
			continue // already completed
		}
		want := int(part.OfNode(f.Src))
		if !e.sh.shards[want].completions.Contains(int(id)) {
			t.Errorf("flow %d (src pod %d) not on its home shard heap", id, want)
		}
	}
}

// splitDirty(true) must return exactly the ascending union of the
// components its seeds touch, whether it emits a dense union by
// sweeping the flow marks or sorts a sparse one. The populations mix
// recycled FlowIDs, loopback flows (no links) and stalled flows (no
// links, reachable only as seed flows) on two fabrics: a single switch,
// where one seed reaches nearly every flow, and a spine-leaf fabric with
// mostly rack-local traffic, where seeds reach small components.
func TestSplitDirtyUnionIsSortedUnion(t *testing.T) {
	branches := map[bool]int{} // dense → count
	for _, topo := range []string{"switch", "spineleaf"} {
		for seed := int64(1); seed <= 40; seed++ {
			var top *topology.Topology
			var err error
			if topo == "switch" {
				top, err = topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 12})
			} else {
				top = diffFabric(t)
			}
			if err != nil {
				t.Fatal(err)
			}
			net := NewNetwork(top)
			e := NewEngine(net, NewIdealMaxMin(net))
			e.SetTelemetry(telemetry.NewRegistry())
			rng := rand.New(rand.NewSource(seed))
			hosts := top.Hosts()
			var live []FlowID
			add := func() {
				src := rng.Intn(len(hosts))
				dst := rng.Intn(len(hosts))
				switch {
				case rng.Intn(8) == 0:
					dst = src // loopback
				case topo == "spineleaf" && rng.Intn(6) > 0:
					dst = src/4*4 + rng.Intn(4) // same rack
				}
				id, err := net.AddFlow(0, FlowSpec{Src: hosts[src], Dst: hosts[dst], Bits: 1e6})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			for i := 0; i < 5+rng.Intn(40); i++ {
				add()
			}
			for i := 0; i < len(live)/3; i++ { // free some slots, then recycle them
				k := rng.Intn(len(live))
				if err := net.RemoveFlow(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			}
			for i := 0; i < rng.Intn(10); i++ {
				add()
			}
			// Stall one host's flows: admitted while its uplink is down.
			up := hostUplink(t, top, hosts[0])
			if _, err := top.FailLink(up); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				id, err := net.AddFlow(0, FlowSpec{Src: hosts[0], Dst: hosts[1+i], Bits: 1e6})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			if _, err := top.RestoreLink(up); err != nil {
				t.Fatal(err)
			}

			links := top.Links()
			e.seedLinks = e.seedLinks[:0]
			e.seedFlows = e.seedFlows[:0]
			for i := 0; i < rng.Intn(4); i++ {
				e.seedLinks = append(e.seedLinks, links[rng.Intn(len(links))].ID)
			}
			for i := 0; i < rng.Intn(4); i++ {
				e.seedFlows = append(e.seedFlows, live[rng.Intn(len(live))])
			}
			if rng.Intn(4) == 0 {
				// A cancelled seed flow whose slot was not recycled.
				id := live[rng.Intn(len(live))]
				if err := net.RemoveFlow(id); err != nil {
					t.Fatal(err)
				}
				e.seedFlows = append(e.seedFlows, id)
			}
			var want []FlowID
			for _, c := range goldenComponents(net, e.seedLinks, e.seedFlows) {
				want = append(want, c...)
			}
			slices.Sort(want)

			e.splitDirty(true)
			if !slices.Equal(e.ids, want) {
				t.Fatalf("%s seed %d: union %v, want %v", topo, seed, e.ids, want)
			}
			wantOff := []int{len(want)}
			if len(want) > 0 {
				wantOff = []int{0, len(want)}
			}
			if !slices.Equal(e.sh.compOff, wantOff) {
				t.Fatalf("%s seed %d: compOff %v, want %v", topo, seed, e.sh.compOff, wantOff)
			}
			if n := len(want); n > 0 {
				branches[n*bits.Len(uint(n)) >= len(net.flows)]++
			}
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Fatalf("dense/sparse unions exercised %d/%d times; want both", branches[true], branches[false])
	}
}

// BenchmarkSplitDirtyDense times the union expansion of one dense
// component: one 32-host switch carrying about 250 flows, seeded by one
// link, the shape of every recompute on the testbed.
func BenchmarkSplitDirtyDense(b *testing.B) {
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 32})
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(telemetry.NewRegistry())
	rng := rand.New(rand.NewSource(1))
	hs := top.Hosts()
	for net.NumActive() < 250 {
		s, d := hs[rng.Intn(32)], hs[rng.Intn(32)]
		if s == d {
			continue
		}
		if _, err := net.AddFlow(0, FlowSpec{Src: s, Dst: d, Bits: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	seed := net.flows[0].Path[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.seedLinks = append(e.seedLinks[:0], seed)
		e.splitDirty(true)
	}
	if len(e.ids) != 250 {
		b.Fatalf("union has %d flows, want 250", len(e.ids))
	}
}
