package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"saba/internal/controller"
	"saba/internal/experiments"
	"saba/internal/netsim"
	"saba/internal/sabalib"
	"saba/internal/topology"
)

// heldOutSeed is never used while writing a change: a claim made on the
// usual seeds is confirmed by running the benchmark (and these checks)
// on it as well.
const heldOutSeed = 1_000_003

// devSeeds are the seeds the output checks run on.
var devSeeds = []int64{1, heldOutSeed}

// TestTracedPassMatchesUntraced checks that the wrappers are transparent:
// a traced pass reproduces the untraced completion digest bit for bit on
// every simulation workload, and the allocator wrapper kept the sharded
// path (clones allocated) where the engine shards.
func TestTracedPassMatchesUntraced(t *testing.T) {
	builds := map[string]func(int64) (*simInput, error){
		"testbed": newTestbed, "fabric": newFabric, "podlocal": newPodlocal,
	}
	names := []string{"podlocal", "fabric", "testbed"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		for _, seed := range devSeeds {
			in, err := builds[name](seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			plain := in.simulate(nil)
			tr := newTracer()
			traced := in.simulate(tr)
			for _, out := range []passOut{plain, traced} {
				if out.failed != 0 {
					t.Fatalf("%s seed %d: %v", name, seed, out.problems)
				}
			}
			if plain.digest != traced.digest {
				t.Errorf("%s seed %d: traced digest %016x, untraced %016x", name, seed, traced.digest, plain.digest)
			}
			if again := in.simulate(nil); again.digest != plain.digest {
				t.Errorf("%s seed %d: digest not repeatable: %016x then %016x", name, seed, plain.digest, again.digest)
			}
			if tr.totals()[spanAlloc].calls == 0 {
				t.Errorf("%s seed %d: no allocator spans recorded", name, seed)
			}
			if name == "podlocal" && len(tr.bufs) < 3 {
				t.Errorf("podlocal: %d span buffers; the sharded engine made no allocator clones", len(tr.bufs))
			}
		}
	}
}

// TestAllocatorSumsLeaveOutTheSwap checks that the allocator sums count
// the calls an untraced pass makes: core.RunJobs installs the wrapper
// with SetAllocator, whose forced whole-network recompute is recorded
// apart. It also checks that engine self time stays non-negative where
// allocator clones run in parallel.
func TestAllocatorSumsLeaveOutTheSwap(t *testing.T) {
	for name, build := range map[string]func(int64) (*simInput, error){"testbed": newTestbed, "fabric": newFabric} {
		in, err := build(1)
		if err != nil {
			t.Fatal(err)
		}
		in.runs = in.runs[:5]
		t0 := readTel()
		in.simulate(nil)
		plain := readTel().sub(t0)
		tr := newTracer()
		in.simulate(tr)
		tot := tr.totals()
		if got, want := tot[spanAlloc].calls, int64(plain["netsim.rate_recomputes"])+tr.allocFull.Load(); got != want {
			t.Errorf("%s: %d allocator calls traced, untraced pass made %d", name, got, want)
		}
		if n := tr.allocSwaps.Load(); n != int64(len(in.runs)) {
			t.Errorf("%s: %d swap recomputes for %d runs", name, n, len(in.runs))
		}
	}
	in, err := newPodlocal(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tel0 := readTel()
	in.simulate(tr)
	l := simLayers(tr, readTel().sub(tel0), 1, 1)
	if self := l["netsim.engine.self_s"].Value; self < 0 {
		t.Errorf("podlocal: netsim.engine.self_s = %g", self)
	}
	if union, busy := tr.allocUnionNs(), tr.totals()[spanAlloc].ns; union > busy {
		t.Errorf("podlocal: allocator busy union %d ns exceeds the summed %d ns", union, busy)
	}
}

// TestRungSampleCounts checks the tail quantiles a ladder rung supports,
// as the control parameters document them.
func TestRungSampleCounts(t *testing.T) {
	if q, _ := tailQuantile(2 * ctrlRungLifecycles); q != 0.9 {
		t.Errorf("application class of a rung: p%g, want p90", q*100)
	}
	if q, _ := tailQuantile(2 * ctrlConnsPerApp * ctrlRungLifecycles); q != 0.99 {
		t.Errorf("connection class of a rung: p%g, want p99", q*100)
	}
	if q, _ := tailQuantile(2 * ctrlConnsPerApp * ctrlNominalLifecycles); q != 0.99 {
		t.Errorf("connection class at the nominal rate: p%g, want p99", q*100)
	}
}

// TestInputsDeterministic checks that a seed fixes the generated inputs
// and that different seeds draw different ones.
func TestInputsDeterministic(t *testing.T) {
	for name, build := range map[string]func(int64) (*simInput, error){
		"testbed": newTestbed, "fabric": newFabric, "podlocal": newPodlocal,
	} {
		a, err := build(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := build(1)
		c, _ := build(2)
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 drew two inputs (%016x, %016x)", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 drew the same input", name)
		}
	}
}

// TestRefKernel checks the calibration: every thread's kernel does the
// same fixed work, a pass is followed by kernel samples for about
// refShare of its time, and the scales divide the reference times by
// the mean sample.
func TestRefKernel(t *testing.T) {
	k := newRefKernel(2)
	k.measure(func() {})
	if len(k.cpu) != 2 || len(k.wall) != 2 {
		t.Fatalf("%d samples around an empty pass, want 2 (one before, one after)", len(k.cpu))
	}
	pass := 8 * time.Duration(k.wall[1]*float64(time.Second))
	k.measure(func() { time.Sleep(pass) })
	spent := 0.0
	for _, w := range k.wall[2:] {
		spent += w
	}
	if spent < refShare*pass.Seconds() {
		t.Errorf("kernel ran %.3f s after a %.3f s pass, want at least %.3f s", spent, pass.Seconds(), refShare*pass.Seconds())
	}
	a, b := k.states[0], k.states[1]
	for f := range a.rate {
		if a.rate[f] != b.rate[f] {
			t.Fatalf("flow %d: threads computed rates %g and %g", f, a.rate[f], b.rate[f])
		}
	}
	if got, want := k.cpuScale(), refKernelCPU/mean(k.cpu); got != want {
		t.Errorf("cpuScale %g, want %g", got, want)
	}
	if got, want := k.wallScale(), refKernelWall/mean(k.wall); got != want {
		t.Errorf("wallScale %g, want %g", got, want)
	}
}

// TestPoissonSchedule checks the open-loop generator: the schedule is a
// pure function of the seed and its rate is within 5% of the target.
func TestPoissonSchedule(t *testing.T) {
	top, err := topology.NewSpineLeaf(fabricConfig)
	if err != nil {
		t.Fatal(err)
	}
	const n, rate = 4000, 50.0
	a := genLifecycles(rand.New(rand.NewSource(7)), top.Hosts(), n, rate)
	b := genLifecycles(rand.New(rand.NewSource(7)), top.Hosts(), n, rate)
	if digestLifecycles(fnvOffset, a) != digestLifecycles(fnvOffset, b) {
		t.Fatal("same seed, different schedules")
	}
	got := float64(n) / a[n-1].arrive.Seconds()
	if got < 0.95*rate || got > 1.05*rate {
		t.Errorf("offered rate %.2f/s, want %.0f/s ±5%%", got, rate)
	}
	for i := 1; i < n; i++ {
		if a[i].arrive < a[i-1].arrive {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}

// TestTailQuantile checks that a percentile is reported only with at
// least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	if _, ok := tailQuantile(19); ok {
		t.Error("19 samples support a tail")
	}
	for _, n := range []int{20, 100, 999, 1000, 5000} {
		q, ok := tailQuantile(n)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if beyond := float64(n) * (1 - q); beyond < 10-1e-9 {
			t.Errorf("n=%d: q=%g leaves %.1f samples beyond", n, q, beyond)
		}
		if q > 0.99 {
			t.Errorf("n=%d: q=%g above p99", n, q)
		}
	}
	if q, _ := tailQuantile(1000); q != 0.99 {
		t.Errorf("1000 samples: q=%g, want 0.99", q)
	}
}

// TestOpenLoopTimesFromDue checks that open-loop latency runs from the
// due time: lifecycles that all fall due at once queue on their
// connection, and their latencies include that wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	env := testCtrl(t, nil)
	lcs := genLifecycles(rand.New(rand.NewSource(3)), env.top.Hosts(), 6, 0)
	ss := env.openLoop(lcs) // every register falls due at 0
	waited := false
	for _, s := range ss {
		if s.failed {
			t.Fatalf("%s failed", s.kind)
		}
		if s.start < s.due || s.end < s.start {
			t.Fatalf("%s: due %v start %v end %v", s.kind, s.due, s.start, s.end)
		}
		if s.latency() != s.end-s.due {
			t.Fatalf("latency %v, want end-due %v", s.latency(), s.end-s.due)
		}
		if s.kind == opRegister && s.start-s.due > time.Millisecond {
			waited = true
		}
	}
	if !waited {
		t.Error("no register waited for its connection, though all fell due at once")
	}
	rep := newReport()
	env.drainCheck(rep)
	if rep.failed != 0 {
		t.Error(rep.problems)
	}
}

// TestControlTracedMatchesUntraced runs one closed-loop batch plain and
// one traced and checks identical outcomes, a drained controller, and
// that every wrapped layer recorded spans.
func TestControlTracedMatchesUntraced(t *testing.T) {
	outcome := func(tr *tracer) map[string][2]int {
		env := testCtrl(t, tr)
		setTracing(env, tr != nil, tr)
		batch := genLifecycles(rand.New(rand.NewSource(11)), env.top.Hosts(), 8, 0)
		out := map[string][2]int{}
		for _, s := range env.closedLoop(batch) {
			o := out[s.kind]
			o[0]++
			if s.failed {
				o[1]++
			}
			out[s.kind] = o
		}
		rep := newReport()
		env.drainCheck(rep)
		if rep.failed != 0 {
			t.Error(rep.problems)
		}
		return out
	}
	plain := outcome(nil)
	tr := newTracer()
	traced := outcome(tr)
	if len(plain) != 4 {
		t.Fatalf("outcomes %v", plain)
	}
	for k, v := range plain {
		if traced[k] != v {
			t.Errorf("%s: traced %v, untraced %v", k, traced[k], v)
		}
	}
	tot := tr.totals()
	for _, name := range []string{"sabalib." + opRegister, "rpc.call", "controller.handle." + opConnCreate, spanApply} {
		if tot[name].calls == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks the extensions callers
// type-assert survive wrapping.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: 4, Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(top)
	tr := newTracer()
	sa, ok := wrapAlloc(tr, netsim.NewIdealMaxMin(net)).(netsim.ShardableAllocator)
	if !ok {
		t.Fatal("wrapped IdealMaxMin lost ShardClone")
	}
	if sa.ShardClone() == nil {
		t.Error("wrapped ShardClone returned nil")
	}
	if _, ok := wrapAlloc(tr, netsim.NewHoma(net, nil)).(netsim.ShardableAllocator); ok {
		t.Error("wrapped Homa claims to be shardable")
	}
	var enf controller.Enforcer = &tracedEnforcer{inner: netsim.NewWFQ(net), tr: tr}
	if _, ok := enf.(controller.Deconfigurer); !ok {
		t.Error("wrapped enforcer lost Deconfigure")
	}
	var tp sabalib.Transport = &tracedTransport{tr: tr}
	if _, ok := tp.(sabalib.TenantTransport); !ok {
		t.Error("wrapped transport lost TenantTransport")
	}
}

// TestBenchmarkJSONListsTheMetrics checks BENCHMARK.json names exactly the
// metrics the command reports.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+"/"+m.Unit)
	}
	sort.Strings(e2e)
	want := []string{"alloc_mb/MiB", "cpu_s/s", "setup_s/s", "wall_s/s"}
	if len(e2e) != len(want) {
		t.Fatalf("end_to_end %v, want %v", e2e, want)
	}
	for i := range want {
		if e2e[i] != want[i] {
			t.Errorf("end_to_end %v, want %v", e2e, want)
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("per_layer has %d metrics, the command reports %d", len(b.PerLayer), len(layerUnits))
	}
	for _, m := range b.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per_layer %s (%s): the command reports unit %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}

// testCtrl starts a control environment that the test closes.
func testCtrl(t *testing.T, tr *tracer) *ctrlEnv {
	t.Helper()
	top, err := topology.NewSpineLeaf(fabricConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := experiments.ProfileCatalog(3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := startCtrl(top, tab, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.close)
	return env
}
