package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"saba/internal/core"
	"saba/internal/experiments"
	"saba/internal/metrics"
	"saba/internal/netsim"
	"saba/internal/profiler"
	"saba/internal/telemetry"
	"saba/internal/topology"
	"saba/internal/workload"
)

// Input sizes. Each is fixed so a pass does the same work at every
// --seconds; the seed only changes which inputs are drawn.
const (
	// testbedSetups is how many 16-job setups one testbed pass simulates.
	testbedSetups = 5
	testbedJobs   = 16
	// fabricInstances is how many independent Fig. 10 placements (each
	// with its own 20 synthetic workloads) one fabric pass simulates.
	fabricInstances  = 6
	fabricWorkloads  = 20
	podlocalWaves    = 10
	podlocalPerWave  = 1024
	podlocalWaveGap  = 2e-3 // virtual seconds between waves
	podlocalMeanBits = 1e7
)

// testbedInstances are the per-job instance counts of a testbed setup:
// each setup runs two jobs at each count, and every catalog application
// runs once at each count across the pass. The seed decides which
// applications share a setup and places each job's instances on the
// least loaded hosts of its setup, ties broken at random (the paper's
// placement rule). Fixing the counts keeps every setup's size the same
// at every seed: the paper draws applications and counts independently
// (counts 0.5x to 4x of eight nodes), which makes a single setup cost
// anywhere from 4 to 11 s on two cores and its speedup swing from 1.6x
// to 2.6x.
var testbedInstances = []int{3, 4, 5, 6, 7, 8, 9, 10}

// policyRun is one core.RunJobs call of a pass.
type policyRun struct {
	jobs   []core.JobSpec
	policy core.Policy
	cfg    core.RunConfig
	base   int // index of the baseline run this one is compared with, or -1
}

// simInput is a generated simulation input: a topology and the policy
// runs of one pass, or (podlocal) a direct engine run.
type simInput struct {
	top    *topology.Topology
	runs   []policyRun
	digest uint64 // digest of the generated input
	// engine, when set, replaces runs: podlocal drives netsim directly.
	engine func(tr *tracer) (uint64, error)
}

// passOut is what one simulation pass produced.
type passOut struct {
	digest            uint64    // completion digest
	speedups          []float64 // per-job baseline/Saba completion ratios
	attempted, failed int
	problems          []string
}

// simulate runs one pass over in; tr is nil for an untraced pass.
func (in *simInput) simulate(tr *tracer) passOut {
	out := passOut{digest: fnvOffset}
	if in.engine != nil {
		out.attempted = 1
		d, err := in.engine(tr)
		if err != nil {
			out.failed++
			out.problems = append(out.problems, err.Error())
		}
		out.digest = d
		return out
	}
	results := make([]core.Result, len(in.runs))
	ok := make([]bool, len(in.runs))
	for i, r := range in.runs {
		out.attempted++
		cfg := r.cfg
		var res core.Result
		var err error
		call := func() error {
			res, err = core.RunJobs(in.top, r.jobs, cfg)
			return err
		}
		if tr != nil {
			cfg.BeforeRun = func(e *netsim.Engine) error {
				e.SetAllocator(wrapSwapped(tr, e.Allocator()))
				return nil
			}
			_ = tr.run("core.run."+r.policy.String(), call) // err is checked below
		} else {
			_ = call()
		}
		if err == nil {
			err = checkCompletions(res, len(r.jobs))
		}
		if err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("run %d (%s): %v", i, r.policy, err))
			continue
		}
		results[i], ok[i] = res, true
		for _, c := range res.Completions {
			out.digest = fnv(out.digest, math.Float64bits(c))
		}
	}
	for i, r := range in.runs {
		if r.base < 0 || r.policy != core.PolicySaba || !ok[i] || !ok[r.base] {
			continue
		}
		for j, c := range results[i].Completions {
			out.speedups = append(out.speedups, results[r.base].Completions[j]/c)
		}
	}
	return out
}

// checkCompletions verifies every job finished at a positive, finite
// time.
func checkCompletions(res core.Result, jobs int) error {
	if len(res.Completions) != jobs {
		return fmt.Errorf("%d completions for %d jobs", len(res.Completions), jobs)
	}
	for j, c := range res.Completions {
		if !(c > 0) || math.IsInf(c, 0) {
			return fmt.Errorf("job %d completion time %g", j, c)
		}
	}
	return nil
}

// --- inputs -----------------------------------------------------------------

// newTestbed draws the testbed input: testbedSetups setups of the ten
// catalog applications on the 32-host, 8-queue single switch (see
// testbedInstances).
func newTestbed(seed int64) (*simInput, error) {
	tab, _, err := experiments.ProfileCatalog(3)
	if err != nil {
		return nil, err
	}
	top, err := topology.NewSingleSwitch(topology.SingleSwitchConfig{Hosts: experiments.TestbedHosts, Queues: 8})
	if err != nil {
		return nil, err
	}
	hosts := top.Hosts()
	catalog := workload.Catalog()
	// Each application takes one job slot at every instance count.
	counts := len(testbedInstances)
	perSetup := len(catalog) / testbedSetups // jobs per count in one setup
	if perSetup*testbedSetups != len(catalog) || perSetup*counts != testbedJobs {
		return nil, fmt.Errorf("testbed: %d applications × %d counts do not fill %d setups", len(catalog), counts, testbedSetups)
	}
	rng := rand.New(rand.NewSource(seed))
	byCount := make([][]int, counts) // byCount[c]: applications in setup order
	for c := range byCount {
		byCount[c] = rng.Perm(len(catalog))
	}
	in := &simInput{top: top, digest: fnvOffset}
	for s := 0; s < testbedSetups; s++ {
		var slots [][2]int // (application, instance count)
		for c, apps := range byCount {
			for _, a := range apps[s*perSetup : (s+1)*perSetup] {
				slots = append(slots, [2]int{a, testbedInstances[c]})
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		load := make([]int, len(hosts)) // instances per host in this setup
		jobs := make([]core.JobSpec, testbedJobs)
		for j, slot := range slots {
			order := rng.Perm(len(hosts))
			sort.SliceStable(order, func(a, b int) bool { return load[order[a]] < load[order[b]] })
			nodes := make([]topology.NodeID, slot[1])
			for k, h := range order[:slot[1]] {
				nodes[k] = hosts[h]
				load[h]++
			}
			jobs[j] = core.JobSpec{Spec: catalog[slot[0]], DatasetScale: 1, Nodes: nodes}
		}
		in.digest = digestJobs(in.digest, jobs)
		base := len(in.runs)
		in.runs = append(in.runs,
			policyRun{jobs: jobs, policy: core.PolicyBaseline, base: -1,
				cfg: core.RunConfig{Policy: core.PolicyBaseline, Seed: seed}},
			policyRun{jobs: jobs, policy: core.PolicySaba, base: base,
				cfg: core.RunConfig{Policy: core.PolicySaba, Table: tab, Seed: seed}})
	}
	return in, nil
}

// fabricPolicies are the Fig. 10 policies, baseline first.
var fabricPolicies = []core.Policy{
	core.PolicyBaseline, core.PolicySaba, core.PolicyIdealMaxMin, core.PolicyHoma, core.PolicySincronia,
}

// newFabric draws the fabric input: fabricInstances placements, each of
// a set of 20 synthetic workloads, profiled, dealt one per host across
// the three-pod spine-leaf (the Fig. 10 procedure). The workload sets
// are the same at every seed (set i is drawn from seed i+1), so a pass's
// work stays level; the seed draws the placements. Drawing the sets from
// the seed too makes a pass's cost vary by about 15% between seeds.
func newFabric(seed int64) (*simInput, error) {
	top, err := topology.NewSpineLeaf(fabricConfig)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &simInput{top: top, digest: fnvOffset}
	for inst := 0; inst < fabricInstances; inst++ {
		specs := workload.Synthetic(workload.SynthConfig{Count: fabricWorkloads}, rand.New(rand.NewSource(int64(inst)+1)))
		table := profiler.NewTable()
		for _, spec := range specs {
			res, err := profiler.Profile(spec.Name, &profiler.SimRunner{Spec: spec}, nil, []int{3})
			if err != nil {
				return nil, fmt.Errorf("profile %s: %w", spec.Name, err)
			}
			if err := table.PutResult(res, 3); err != nil {
				return nil, err
			}
		}
		hosts := append([]topology.NodeID(nil), top.Hosts()...)
		rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		jobs := make([]core.JobSpec, len(specs))
		for i, spec := range specs {
			var nodes []topology.NodeID
			for h := i; h < len(hosts); h += len(specs) {
				nodes = append(nodes, hosts[h])
			}
			jobs[i] = core.JobSpec{Spec: spec, Nodes: nodes}
		}
		in.digest = digestJobs(in.digest, jobs)
		base := len(in.runs)
		for _, p := range fabricPolicies {
			in.runs = append(in.runs, policyRun{jobs: jobs, policy: p, base: base,
				cfg: core.RunConfig{Policy: p, Table: table, Seed: seed, PLs: 16, SimBaseline: true}})
		}
		in.runs[base].base = -1
	}
	return in, nil
}

// fabricConfig is the reduced Fig. 10 fabric (72 hosts, three pods), the
// same shape experiments.ScaleConfig defaults to.
var fabricConfig = topology.SpineLeafConfig{
	Pods: 3, ToRsPerPod: 3, LeavesPerPod: 7, Spines: 7, HostsPerToR: 8, Queues: 16,
}

// podlocalConfig is the reduced FigHyperscale fabric: 8 pods × 8 ToRs ×
// 20 hosts.
var podlocalConfig = topology.SpineLeafConfig{
	Pods: 8, ToRsPerPod: 8, LeavesPerPod: 4, Spines: 4, HostsPerToR: 20, Queues: 16,
}

// newPodlocal draws podlocalWaves waves of pod-local flows with
// heavy-tailed sizes (the FigHyperscale generator) and returns an input
// whose pass runs them under ideal max-min on the per-pod sharded
// engine.
func newPodlocal(seed int64) (*simInput, error) {
	top, err := topology.NewSpineLeaf(podlocalConfig)
	if err != nil {
		return nil, err
	}
	part := top.Partition()
	rng := rand.New(rand.NewSource(seed))
	waves := make([][]netsim.FlowSpec, podlocalWaves)
	digest := uint64(fnvOffset)
	for w := range waves {
		specs := make([]netsim.FlowSpec, podlocalPerWave)
		for i := range specs {
			hs := part.HostsIn(rng.Intn(part.NumParts()))
			src := hs[rng.Intn(len(hs))]
			dst := hs[rng.Intn(len(hs))]
			for dst == src {
				dst = hs[rng.Intn(len(hs))]
			}
			bits := podlocalMeanBits * (0.25 + 0.75*rng.ExpFloat64())
			specs[i] = netsim.FlowSpec{Src: src, Dst: dst, Bits: bits, Mult: 1}
			digest = fnv(fnv(fnv(digest, uint64(src)), uint64(dst)), math.Float64bits(bits))
		}
		waves[w] = specs
	}
	in := &simInput{top: top, digest: digest}
	in.engine = func(tr *tracer) (uint64, error) { return runWaves(top, waves, tr) }
	return in, nil
}

// runWaves simulates the waves once and returns the completion digest
// (flow id and completion time, in callback order). It checks that every
// admitted flow completed, by the benchmark's own count.
func runWaves(top *topology.Topology, waves [][]netsim.FlowSpec, tr *tracer) (uint64, error) {
	net := netsim.NewNetwork(top)
	var alloc netsim.Allocator = netsim.NewIdealMaxMin(net)
	if tr != nil {
		alloc = wrapAlloc(tr, alloc)
	}
	e := netsim.NewEngine(net, alloc)
	e.SetShards(-1)
	defer e.SetShards(1) // release the worker pool
	// The callback only reads e.Now() and folds run-local state, so the
	// engine may retire completions inside lookahead windows.
	e.SetPureCallbacks(true)
	digest, done, admitted := uint64(fnvOffset), 0, 0
	record := func(e *netsim.Engine, id netsim.FlowID) {
		done++
		digest = fnv(fnv(digest, uint64(id)), math.Float64bits(e.Now()))
	}
	var addErr error
	for w, specs := range waves {
		specs := specs
		if err := e.At(float64(w)*podlocalWaveGap, func(e *netsim.Engine) {
			if _, err := e.AddFlows(specs, record); err != nil && addErr == nil {
				addErr = err
			}
			admitted += len(specs)
		}); err != nil {
			return digest, err
		}
	}
	run := func() error { return e.Run(math.Inf(1)) }
	var err error
	if tr != nil {
		err = tr.run("netsim.engine.run", run)
	} else {
		err = run()
	}
	switch {
	case err != nil:
		return digest, err
	case addErr != nil:
		return digest, addErr
	case done != admitted || admitted != len(waves)*podlocalPerWave:
		return digest, fmt.Errorf("%d of %d flows completed", done, admitted)
	}
	return digest, nil
}

// digestJobs folds a job list (application, scale, hosts) into h.
func digestJobs(h uint64, jobs []core.JobSpec) uint64 {
	for _, j := range jobs {
		for _, c := range []byte(j.Spec.Name) {
			h = fnv(h, uint64(c))
		}
		h = fnv(h, math.Float64bits(j.DatasetScale))
		for _, n := range j.Nodes {
			h = fnv(h, uint64(n))
		}
	}
	return h
}

// --- the simulation runner ---------------------------------------------------

func runTestbed(o options) (*report, error) { return runSim(o, newTestbed, 1) }
func runFabric(o options) (*report, error)  { return runSim(o, newFabric, 1) }

// runPodlocal calibrates on every thread: its passes keep the sharded
// engine's worker pool busy on all of them.
func runPodlocal(o options) (*report, error) {
	return runSim(o, newPodlocal, runtime.GOMAXPROCS(0))
}

// runSim sets the input up, then simulates it in passes until the
// budget is spent. A traced run alternates untraced and traced passes.
func runSim(o options, build func(int64) (*simInput, error), kernelThreads int) (*report, error) {
	kern := newRefKernel(kernelThreads)
	in, setupS, builds, err := medianSetup(func() (*simInput, error) { return build(o.seed) }, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := newReport()
	rep.infof("input: digest=%016x", in.digest)

	var tr *tracer
	var tel0 telSnap
	var plainWalls, plainAllocs, plainCPU, tracedWalls []float64
	var telSum telSnap = map[string]float64{}
	var heapS *heapSampler
	g0 := readGoStats()
	if o.trace {
		tr = newTracer()
		heapS = startHeapSampler()
	}
	first := true
	var digest uint64
	var speedups []float64
	passes := untilDeadline(time.Duration(o.seconds*float64(time.Second)), 2, func(i int) {
		withTrace := o.trace && i%2 == 1
		var out passOut
		var ptr *tracer
		if withTrace {
			ptr = tr
			tel0 = readTel()
		}
		ps := kern.measure(func() { out = in.simulate(ptr) })
		if withTrace {
			telSum.add(readTel().sub(tel0))
			tracedWalls = append(tracedWalls, ps.wall)
		} else {
			plainWalls = append(plainWalls, ps.wall)
			plainAllocs = append(plainAllocs, ps.alloc)
			plainCPU = append(plainCPU, ps.cpu)
		}
		rep.attempted += out.attempted
		rep.failed += out.failed
		rep.problems = append(rep.problems, out.problems...)
		if first {
			digest, speedups, first = out.digest, out.speedups, false
		} else if out.digest != digest {
			rep.fail("pass %d (traced=%v): completion digest %016x differs from the first pass's %016x", i, withTrace, out.digest, digest)
		}
	})
	rep.infof("output: completion digest=%016x passes=%d", digest, passes)
	rep.e2e["alloc_mb"] = metric{median(plainAllocs), "MiB"}
	wallS := median(plainWalls)
	addTimes(rep, kern, setupS, builds, plainCPU, plainWalls)
	speedup := 0.0
	if len(speedups) > 0 {
		var err error
		if speedup, err = metrics.GeoMean(speedups); err != nil {
			return nil, err
		}
		rep.infof("saba_speedup: %.6f x (geometric mean over %d jobs; deterministic for a seed)", speedup, len(speedups))
	}
	if o.trace {
		n := float64(len(tracedWalls))
		rep.layers = simLayers(tr, telSum, n, median(tracedWalls))
		rep.layers["core.saba_speedup"] = metric{speedup, "x"}
		rep.layers["trace.overhead_pct"] = metric{overheadPct(median(tracedWalls), wallS), "%"}
		rep.layers["run.wall_s"] = metric{wallS, "s"}
		rep.layers["run.kernel_cpu_s"] = metric{mean(kern.cpu), "s"}
		addGoLayers(rep, g0, heapS.peakMB(), passes)
		fillLayers(rep.layers)
		if err := tr.write(spanFile(o.workload, o.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.infof("trace: %d traced passes, overhead %.2f%% of wall time, spans in %s", len(tracedWalls),
			rep.layers["trace.overhead_pct"].Value, spanFile(o.workload, o.seed))
	}
	return rep, nil
}

// overheadPct is how much slower the traced measurement was.
func overheadPct(traced, plain float64) float64 {
	if plain == 0 {
		return 0
	}
	return (traced/plain - 1) * 100
}

// simLayers derives the per-layer metrics of the simulation workloads,
// per traced pass. wall is the median traced pass time.
func simLayers(tr *tracer, tel telSnap, passes, wall float64) map[string]metric {
	t := tr.totals()
	l := map[string]metric{}
	per := func(x float64) float64 { return x / passes }
	alloc := t[spanAlloc]
	allocS := float64(alloc.ns) / 1e9
	l["netsim.alloc.busy_s"] = metric{per(allocS), "s"}
	l["netsim.alloc.calls"] = metric{per(float64(alloc.calls)), "count"}
	l["netsim.alloc.full_calls"] = metric{per(float64(tr.allocFull.Load())), "count"}
	l["netsim.alloc.scoped_declined"] = metric{per(float64(tr.allocDeclined.Load())), "count"}
	l["netsim.alloc.flows_per_call"] = metric{ratio(float64(alloc.items), float64(alloc.calls)), "count"}
	l["netsim.alloc.ns_per_flow"] = metric{ratio(float64(alloc.ns), float64(alloc.items)), "ns"}
	runS := 0.0
	for _, p := range fabricPolicies {
		s := float64(t["core.run."+p.String()].ns) / 1e9
		runS += s
		l["core.run."+p.String()+"_s"] = metric{per(s), "s"}
	}
	runS += float64(t["netsim.engine.run"].ns) / 1e9
	// Engine time is run time in which no allocator ran: on the sharded
	// engine, clones that allocate in parallel overlap, and subtracting
	// their summed time would leave a negative remainder.
	unionS := float64(tr.allocUnionNs()) / 1e9
	solveS := tel["controller.solve_s"]
	l["netsim.engine.self_s"] = metric{per(runS - unionS - solveS), "s"}
	l["netsim.recomputes"] = metric{per(tel["netsim.rate_recomputes"] - float64(tr.allocSwaps.Load())), "count"}
	l["netsim.dirty_flows_per_recompute"] = metric{ratio(tel["netsim.dirty_flows"], tel["netsim.scoped_recomputes"]), "count"}
	l["netsim.flow_completions"] = metric{per(tel["netsim.flow_completions"]), "count"}
	l["netsim.alloc.parallel_util"] = metric{ratio(per(allocS), wall*float64(runtime.GOMAXPROCS(0))), "ratio"}
	l["netsim.lookahead.completions_per_round"] = metric{ratio(tel["netsim.lookahead_completions"], tel["netsim.lookahead_rounds"]), "count"}
	addControllerTel(l, tel, passes)
	return l
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- telemetry -------------------------------------------------------------------

// telSnap is a reading of the program's telemetry.Default counters.
type telSnap map[string]float64

func ctrlLabel(name string) string { return telemetry.Label(name, "deploy", "centralized") }

// readTel reads the counters the per-layer metrics use.
func readTel() telSnap {
	r := telemetry.Default
	s := telSnap{}
	for _, name := range []string{
		"netsim.rate_recomputes", "netsim.scoped_recomputes", "netsim.dirty_flows",
		"netsim.flow_completions", "netsim.lookahead_rounds", "netsim.lookahead_completions",
		"rpc.client.calls", "rpc.client.tx_bytes", "rpc.client.rx_bytes",
	} {
		s[name] = float64(r.Counter(name).Value())
	}
	for _, name := range []string{"controller.solcache_hits", "controller.solcache_misses", "controller.reclusters"} {
		s[name] = float64(r.Counter(ctrlLabel(name)).Value())
	}
	h := r.Histogram(ctrlLabel("controller.solve_seconds"))
	s["controller.solve_s"] = h.Sum()
	s["controller.solves"] = float64(h.Count())
	return s
}

func (s telSnap) sub(o telSnap) telSnap {
	d := telSnap{}
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

func (s telSnap) add(o telSnap) {
	for k, v := range o {
		s[k] += v
	}
}

// addControllerTel reports the controller's telemetry per unit (pass or
// call).
func addControllerTel(l map[string]metric, tel telSnap, units float64) {
	l["controller.solve_s"] = metric{tel["controller.solve_s"] / units, "s"}
	l["controller.solves"] = metric{tel["controller.solves"] / units, "count"}
	l["controller.solcache_hit_ratio"] = metric{ratio(tel["controller.solcache_hits"],
		tel["controller.solcache_hits"]+tel["controller.solcache_misses"]), "ratio"}
	l["controller.reclusters"] = metric{tel["controller.reclusters"] / units, "count"}
}

// layerUnits lists every per-layer metric with its unit; a traced run
// reports all of them, with 0 for a layer the workload does not reach.
var layerUnits = map[string]string{
	"netsim.alloc.busy_s":                    "s",
	"netsim.alloc.calls":                     "count",
	"netsim.alloc.full_calls":                "count",
	"netsim.alloc.scoped_declined":           "count",
	"netsim.alloc.flows_per_call":            "count",
	"netsim.alloc.ns_per_flow":               "ns",
	"core.run.baseline_s":                    "s",
	"core.run.saba_s":                        "s",
	"core.run.ideal-maxmin_s":                "s",
	"core.run.homa_s":                        "s",
	"core.run.sincronia_s":                   "s",
	"core.saba_speedup":                      "x",
	"netsim.engine.self_s":                   "s",
	"netsim.recomputes":                      "count",
	"netsim.dirty_flows_per_recompute":       "count",
	"netsim.flow_completions":                "count",
	"netsim.alloc.parallel_util":             "ratio",
	"netsim.lookahead.completions_per_round": "count",
	"controller.solve_s":                     "s",
	"controller.solves":                      "count",
	"controller.solcache_hit_ratio":          "ratio",
	"controller.reclusters":                  "count",
	"controller.handle_s.register":           "s",
	"controller.handle_s.deregister":         "s",
	"controller.handle_s.conn_create":        "s",
	"controller.handle_s.conn_destroy":       "s",
	"controller.enforce.apply_s":             "s",
	"controller.enforce.ports_per_op":        "count",
	"controller.self_s":                      "s",
	"rpc.overhead_s":                         "s",
	"rpc.bytes_per_call":                     "B",
	"sabalib.self_s":                         "s",
	"gen.lag_tail_ms":                        "ms",
	"gen.wait_ms":                            "ms",
	"control.conn_p50_ms":                    "ms",
	"control.conn_tail_ms":                   "ms",
	"control.app_p50_ms":                     "ms",
	"control.app_tail_ms":                    "ms",
	"control.max_ops_s":                      "1/s",
	"trace.overhead_pct":                     "%",
	"run.wall_s":                             "s",
	"run.kernel_cpu_s":                       "s",
	"go.gc_cycles":                           "count",
	"go.gc_pause_s":                          "s",
	"go.heap_peak_mb":                        "MiB",
}

// fillLayers adds every per-layer metric the workload did not reach,
// as 0, so each traced run reports the full list.
func fillLayers(l map[string]metric) {
	for name, unit := range layerUnits {
		if _, ok := l[name]; !ok {
			l[name] = metric{0, unit}
		}
	}
	for name, m := range l {
		if want, ok := layerUnits[name]; !ok || want != m.Unit {
			panic(fmt.Sprintf("perfbench: per-layer metric %s (%s) is not in layerUnits", name, m.Unit))
		}
	}
}
