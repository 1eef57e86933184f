package netsim

import (
	"math"
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
