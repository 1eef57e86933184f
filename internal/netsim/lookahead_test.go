package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// runPodLocal drives a seeded workload that stays overwhelmingly inside
// single pods — the shape lookahead windows exist for — plus one
// cross-pod flow mid-run so the coupling counters are seen to gate
// windows off and back on. With reshard the engine changes its shard
// count three times mid-run. Returns completion times in admission order.
func runPodLocal(t *testing.T, tg target, seed int64, reshard bool) runOut {
	t.Helper()
	top := diffFabric(t)
	part := top.Partition()
	net := NewNetwork(top)
	reg := telemetry.NewRegistry()
	d, audit := tg.start(net, NewIdealMaxMin(net), reg)
	rc := newRecorder(d, audit, reg)

	rng := rand.New(rand.NewSource(seed))
	podHosts := make([][]topology.NodeID, part.NumParts())
	for p := range podHosts {
		podHosts[p] = part.HostsIn(p)
	}
	const waves = 24
	for w := 0; w < waves; w++ {
		at := float64(w) * 0.25
		batch := 2 + rng.Intn(5)
		specs := make([]FlowSpec, batch)
		for i := range specs {
			hs := podHosts[rng.Intn(len(podHosts))]
			src := hs[rng.Intn(len(hs))]
			dst := hs[rng.Intn(len(hs))]
			for dst == src {
				dst = hs[rng.Intn(len(hs))]
			}
			specs[i] = FlowSpec{Src: src, Dst: dst, Bits: float64((1 + rng.Intn(4000)) * 64)}
		}
		if err := rc.admit(at, specs); err != nil {
			t.Fatal(err)
		}
	}
	// One short cross-pod flow couples both pods for its lifetime:
	// windows must stop while it is attached and resume after it
	// completes (small enough to retire long before the run ends).
	if err := rc.admit(waves/3*0.25+0.01, []FlowSpec{{
		Src: podHosts[0][0], Dst: podHosts[1][0], Bits: 2e3,
	}}); err != nil {
		t.Fatal(err)
	}
	if reshard {
		for i, n := range []int{5, 2, -1} {
			n := n
			if err := d.At(0.8+0.9*float64(i), func() { d.SetShards(n) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	audit.check(t, fmt.Sprintf("pod-local %v", tg))
	return rc.out
}

// The lookahead gate: pod-local traffic must engage windows (several
// completions per barrier round) per pod and on a lone shard, which is
// always isolated, and stay bit-for-bit identical to the reference
// engine at every shard count.
func TestLookaheadPodLocalMatchesSerial(t *testing.T) {
	top := diffFabric(t)
	for seed := int64(1); seed <= 3; seed++ {
		want := runPodLocal(t, reference, seed, false)
		for _, tg := range shardTargets(top) {
			got := runPodLocal(t, tg, seed, false)
			assertSameRun(t, fmt.Sprintf("pod-local seed %d %v", seed, tg), want, got)
			if tg.shards != -1 && tg.shards != 1 {
				continue
			}
			rounds := got.reg.Counter("netsim.lookahead_rounds").Value()
			events := got.reg.Counter("netsim.lookahead_completions").Value()
			if rounds == 0 {
				t.Fatalf("seed %d %v: pod-local workload never entered a lookahead window", seed, tg)
			}
			if events <= rounds {
				t.Errorf("seed %d %v: %d lookahead completions over %d rounds; windows should retire several per round",
					seed, tg, events, rounds)
			}
		}
	}
}

// Without the purity declaration, registered completion callbacks must
// keep lookahead off — and the result must still match the reference
// through the plain barrier rounds.
func TestLookaheadGatedOffByImpureCallbacks(t *testing.T) {
	want := runPodLocal(t, reference, 1, false)
	got := runPodLocal(t, target{shards: -1, impure: true}, 1, false)
	assertSameRun(t, "impure", want, got)
	if rounds := got.reg.Counter("netsim.lookahead_rounds").Value(); rounds != 0 {
		t.Fatalf("lookahead ran %d rounds despite undeclared callbacks", rounds)
	}
}

// Stress the persistent-worker runtime with real parallelism: windows,
// barrier rounds, and mid-run reshards (worker-pool teardown and
// rebuild) under GOMAXPROCS=4, checked bit-for-bit against the
// reference. Run with -race in CI.
func TestLookaheadReshardStressParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for seed := int64(1); seed <= 2; seed++ {
		want := runPodLocal(t, reference, seed, false)
		got := runPodLocal(t, engineAt(-1), seed, true)
		assertSameRun(t, "reshard stress", want, got)
	}
}

// Satellite regression: the per-shard flows_active and
// completion_heap_size gauges must drain to zero when their shard
// retires (SetShards shrinking the count), while the surviving shards
// republish the live counts.
func TestShardGaugesDrainOnRetire(t *testing.T) {
	top := diffFabric(t)
	part := top.Partition()
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)
	for p := 0; p < part.NumParts(); p++ {
		hs := part.HostsIn(p)
		for i := 0; i < 3; i++ {
			if _, err := e.AddFlow(FlowSpec{Src: hs[i], Dst: hs[i+3], Bits: 1e9}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	gauge := func(name string, shard string) float64 {
		return reg.Gauge(telemetry.Label(name, "engine", e.engineID, "shard", shard)).Value()
	}
	e.SetShards(3) // 2 pods folded onto 3 shards: shard 2 owns no pod
	if got := gauge("netsim.flows_active", "0"); got != 3 {
		t.Fatalf("shard 0 flows_active = %v, want 3", got)
	}
	if got := gauge("netsim.flows_active", "1"); got != 3 {
		t.Fatalf("shard 1 flows_active = %v, want 3", got)
	}
	// Project completions onto the shard heaps with one bounded step.
	stop := false
	if err := e.At(1e-6, func(*Engine) { stop = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.Inf(1), func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	if got := gauge("netsim.completion_heap_size", "0"); got != 3 {
		t.Fatalf("shard 0 heap gauge = %v, want 3", got)
	}

	e.SetShards(2) // shard 2 retires; 0 and 1 rebind
	if got := gauge("netsim.flows_active", "2"); got != 0 {
		t.Errorf("retired shard 2 flows_active = %v, want 0", got)
	}
	if got := gauge("netsim.completion_heap_size", "2"); got != 0 {
		t.Errorf("retired shard 2 heap gauge = %v, want 0", got)
	}
	if got := gauge("netsim.flows_active", "0") + gauge("netsim.flows_active", "1"); got != 6 {
		t.Errorf("surviving shards' flows_active sum = %v, want 6", got)
	}

	// One shard: shard 0 owns every live flow and projection, and the
	// shards that retired drain to zero.
	e.SetShards(1)
	if got := gauge("netsim.flows_active", "0"); got != 6 {
		t.Errorf("one shard: shard 0 flows_active = %v, want 6", got)
	}
	if got := gauge("netsim.completion_heap_size", "0"); got != 6 {
		t.Errorf("one shard: shard 0 heap gauge = %v, want 6", got)
	}
	for _, shard := range []string{"1", "2"} {
		if got := gauge("netsim.flows_active", shard); got != 0 {
			t.Errorf("one shard: retired shard %s flows_active = %v, want 0", shard, got)
		}
		if got := gauge("netsim.completion_heap_size", shard); got != 0 {
			t.Errorf("one shard: retired shard %s heap gauge = %v, want 0", shard, got)
		}
	}
}

// Satellite regression: splitDirty must be allocation-free at steady
// state — the scratch (component arrays, seen marks, stack) is grown
// once and reused for the run's remaining recomputes. The fabric case
// covers per-component and sparse-union expansion; the single-switch
// case, whose one component holds every flow, covers the dense union's
// flow-mark sweep.
func TestSplitDirtySteadyStateAllocFree(t *testing.T) {
	top := diffFabric(t)
	net := NewNetwork(top)
	e := NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(telemetry.NewRegistry())
	e.SetShards(-1)
	hosts := top.Hosts()
	var paths [][]topology.LinkID
	for i := 0; i < 12; i++ {
		id, err := e.AddFlow(FlowSpec{Src: hosts[i], Dst: hosts[(i+2)%len(hosts)], Bits: 1e9}, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := net.Flow(id)
		paths = append(paths, f.Path)
	}
	seed := func() {
		e.seedLinks = e.seedLinks[:0]
		for _, p := range paths {
			e.seedLinks = append(e.seedLinks, p...)
		}
	}
	for _, union := range []bool{false, true} {
		seed()
		e.splitDirty(union) // warm the scratch
		allocs := testing.AllocsPerRun(100, func() {
			seed()
			e.splitDirty(union)
		})
		if allocs != 0 {
			t.Fatalf("splitDirty(union=%v) allocates %v times per call at steady state, want 0", union, allocs)
		}
	}

	sw, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 16})
	if err != nil {
		t.Fatal(err)
	}
	net = NewNetwork(sw)
	e = NewEngine(net, NewIdealMaxMin(net))
	e.SetTelemetry(telemetry.NewRegistry())
	hosts = sw.Hosts()
	for i := 0; i < 64; i++ {
		if _, err := e.AddFlow(FlowSpec{Src: hosts[i%16], Dst: hosts[(i*7+3)%16], Bits: 1e9}, nil); err != nil {
			t.Fatal(err)
		}
	}
	link := net.flows[0].Path[0]
	e.seedLinks = append(e.seedLinks[:0], link)
	e.splitDirty(true)
	if n := len(e.ids); n != net.NumActive() || n*bits.Len(uint(n)) < len(net.flows) {
		t.Fatalf("single-switch union holds %d of %d flows; want a dense union of all", n, net.NumActive())
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.seedLinks = append(e.seedLinks[:0], link)
		e.splitDirty(true)
	})
	if allocs != 0 {
		t.Fatalf("dense splitDirty(union=true) allocates %v times per call at steady state, want 0", allocs)
	}
}
