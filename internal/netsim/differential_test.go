package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"saba/internal/solver"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// The differential gates hold the engine to the reference engine
// (reference_test.go): for every allocator, a seeded random workload —
// batched admissions, cancels, and (for WFQ) mid-run reconfigurations,
// optionally under a link-flap schedule — must produce bit-for-bit the
// reference's completion times at every shard count, with the invariant
// audit clean on both sides.

func diffFabric(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := topology.NewSpineLeaf(topology.SpineLeafConfig{
		Pods: 2, ToRsPerPod: 2, LeavesPerPod: 2, Spines: 2,
		HostsPerToR: 4, Queues: 8, LinkCapacity: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// diffAllocator builds one of the six disciplines against a network,
// configuring WFQ's ports the way the controller would.
func diffAllocator(name string, net *Network, reg *telemetry.Registry) Allocator {
	switch name {
	case "ideal-maxmin":
		return NewIdealMaxMin(net)
	case "fecn":
		return NewFECN(net, 0)
	case "homa":
		return NewHoma(net, nil)
	case "sincronia":
		return NewSincronia(net)
	case "wfq":
		w := NewWFQ(net)
		w.SetTelemetry(reg)
		configureWFQPorts(w, net, 0)
		return w
	case "decentral":
		d := NewDecentral(net, DecentralConfig{})
		d.SetTelemetry(reg)
		// Deterministic convex sensitivity models for the scenario's four
		// applications, spanning sensitive to indifferent.
		d.SetObjective(0, solver.PolyObjective{Coeffs: []float64{4.0, -4.5, 1.6}})
		d.SetObjective(1, solver.PolyObjective{Coeffs: []float64{2.4, -1.87, 0.47}})
		d.SetObjective(2, solver.PolyObjective{Coeffs: []float64{1.8, -1.0, 0.25}})
		d.SetObjective(3, solver.PolyObjective{Coeffs: []float64{1.2, -0.21}})
		return d
	}
	panic("unknown allocator " + name)
}

// configureWFQPorts installs deterministic per-port queue configs; round
// varies the weights so mid-run reconfiguration genuinely changes them.
func configureWFQPorts(w *WFQ, net *Network, round int) {
	for _, lk := range net.Topology().Links() {
		weights := make([]float64, 8)
		for q := range weights {
			weights[q] = float64(1 + (q*7+int(lk.ID)+round*3)%5)
		}
		plq := map[int]int{}
		for pl := 0; pl < 8; pl++ {
			plq[pl] = (pl + round) % len(weights)
		}
		if err := w.Configure(lk.ID, PortConfig{Weights: weights, PLQueue: plq}); err != nil {
			panic(err)
		}
	}
}

// scenario layers optional stress onto the differential workload.
type scenario struct {
	flaps bool // a seeded link-flap schedule (see faults_test.go)
	// fullEvery, when positive, marks every rate dirty at this virtual
	// period, forcing the engine's full-recompute path.
	fullEvery float64
}

// runDifferentialScenario drives one seeded scenario on the target and
// returns the completion time of every admission (-1 when cancelled), in
// admission order.
func runDifferentialScenario(t testing.TB, tg target, name string, seed int64, sc scenario) runOut {
	t.Helper()
	top := diffFabric(t)
	net := NewNetwork(top)
	reg := telemetry.NewRegistry()
	alloc := diffAllocator(name, net, reg)
	d, audit := tg.start(net, alloc, reg)
	rc := newRecorder(d, audit, reg)

	rng := rand.New(rand.NewSource(seed))
	hosts := top.Hosts()
	const waves = 30
	for w := 0; w < waves; w++ {
		at := float64(w) * 0.37
		batch := 1 + rng.Intn(6)
		specs := make([]FlowSpec, batch)
		for i := range specs {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if rng.Intn(5) > 0 {
				for dst == src {
					dst = hosts[rng.Intn(len(hosts))]
				}
			} else {
				dst = src // ~20% loopback
			}
			coflow := CoflowID(rng.Intn(6))
			if rng.Intn(3) == 0 {
				coflow = NoCoflow
			}
			specs[i] = FlowSpec{
				Src: src, Dst: dst,
				Bits:   float64((1 + rng.Intn(5000)) * 64),
				App:    AppID(rng.Intn(4)),
				PL:     rng.Intn(8),
				Mult:   1 + rng.Intn(2),
				Coflow: coflow,
			}
		}
		if err := rc.admit(at, specs); err != nil {
			t.Fatal(err)
		}
		if w%5 == 2 {
			// Cancel a pseudo-random earlier admission; a no-op when it
			// already completed.
			victim := rng.Intn((w + 1) * 3)
			if err := d.At(at+0.11, func() { rc.cancel(victim) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Bursts of identical flows on one path share it equally and finish
	// in the same step, so the gates also pin the completion order
	// within a step and the FlowID recycling that follows it. A separate
	// RNG keeps the admission sequence above unchanged.
	brng := rand.New(rand.NewSource(seed ^ 0xb0057))
	for b := 0; b < 4; b++ {
		src := hosts[brng.Intn(len(hosts))]
		dst := hosts[brng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[brng.Intn(len(hosts))]
		}
		spec := FlowSpec{Src: src, Dst: dst, Bits: float64((1 + brng.Intn(2000)) * 64), App: AppID(b), PL: b}
		if err := rc.admit(0.5+2.3*float64(b), []FlowSpec{spec, spec, spec}); err != nil {
			t.Fatal(err)
		}
	}
	if sc.flaps {
		// Layer a seeded link-flap schedule over the workload: both
		// directions of a pseudo-random core (switch-to-switch) cable go
		// down and come back while admissions and cancels keep arriving.
		// A separate RNG keeps the admission sequence identical to the
		// flap-free scenario for the same seed.
		cables := coreCables(top)
		frng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for w := 0; w < 6; w++ {
			at := 1.3 + 1.6*float64(w)
			cable := cables[frng.Intn(len(cables))]
			if err := d.At(at, func() {
				if err := d.FailLinks(cable...); err != nil {
					panic(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if err := d.At(at+0.7, func() {
				if err := d.RestoreLinks(cable...); err != nil {
					panic(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if name == "wfq" {
		// Reconfigure every port mid-run, as the controller does when the
		// application mix shifts, and invalidate all rates.
		if err := d.At(15*0.37+0.05, func() {
			configureWFQPorts(alloc.(*WFQ), net, 1)
			d.MarkDirty()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sc.fullEvery > 0 {
		for at := sc.fullEvery; at < waves*0.37; at += sc.fullEvery {
			if err := d.At(at, func() { d.MarkDirty() }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Run(math.Inf(1)); err != nil {
		t.Fatalf("%s seed %d %v: %v", name, seed, tg, err)
	}
	return rc.out
}

// allocators are the six disciplines every differential gate covers;
// scopable marks those that accept AllocateScoped (the rest decline and
// are re-rated globally).
var (
	allocators = []string{"ideal-maxmin", "fecn", "wfq", "homa", "sincronia", "decentral"}
	scopable   = map[string]bool{"ideal-maxmin": true, "fecn": true, "wfq": true, "decentral": true}
)

// diffAgainstReference runs the scenario on the reference and on the
// engine at every shard count, and fails the test on any completion
// that differs bit for bit or any audit violation. It returns the
// engine runs in shardTargets order.
func diffAgainstReference(t *testing.T, name string, seed int64, sc scenario) []runOut {
	t.Helper()
	want := runDifferentialScenario(t, reference, name, seed, sc)
	want.audit.check(t, fmt.Sprintf("%s seed %d reference", name, seed))
	var outs []runOut
	for _, tg := range shardTargets(diffFabric(t)) {
		got := runDifferentialScenario(t, tg, name, seed, sc)
		ctx := fmt.Sprintf("%s seed %d %v", name, seed, tg)
		got.audit.check(t, ctx)
		assertSameRun(t, ctx, want, got)
		outs = append(outs, got)
	}
	return outs
}

// TestDifferentialScopedMatchesFull: the engine's scoped recomputes
// (dirty components only) must match the reference, which re-rates the
// whole network at every change. Scopable disciplines must actually
// scope; the others must never report a scoped recompute.
func TestDifferentialScopedMatchesFull(t *testing.T) {
	for _, name := range allocators {
		name := name
		t.Run(name, func(t *testing.T) {
			scopedEngaged := false
			for seed := int64(1); seed <= 5; seed++ {
				for _, out := range diffAgainstReference(t, name, seed, scenario{}) {
					if out.reg.Counter("netsim.scoped_recomputes").Value() > 0 {
						scopedEngaged = true
					}
				}
			}
			if scopable[name] && !scopedEngaged {
				t.Errorf("%s: the engine never performed a scoped recompute", name)
			}
			if !scopable[name] && scopedEngaged {
				t.Errorf("%s: non-scopable allocator reported scoped recomputes", name)
			}
		})
	}
}

// TestDifferentialCompletionVectorNonTrivial guards the scenario's
// shape: most admissions must complete, or the gates compare little.
func TestDifferentialCompletionVectorNonTrivial(t *testing.T) {
	done := runDifferentialScenario(t, reference, "ideal-maxmin", 1, scenario{}).done
	completed := 0
	for _, d := range done {
		if d >= 0 {
			completed++
		}
	}
	if completed < len(done)/2 {
		t.Fatalf("scenario too degenerate: only %d/%d completions (%s)",
			completed, len(done), fmt.Sprint(done[:min(8, len(done))]))
	}
}
