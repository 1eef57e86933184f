package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"saba/internal/controller"
	"saba/internal/experiments"
	"saba/internal/netsim"
	"saba/internal/profiler"
	"saba/internal/rpc"
	"saba/internal/sabalib"
	"saba/internal/topology"
	"saba/internal/workload"
)

// Library operations, as the controller's handlers name them.
const (
	opRegister    = "register"
	opDeregister  = "deregister"
	opConnCreate  = "conn_create"
	opConnDestroy = "conn_destroy"
)

// Control workload parameters. Load comes from this one process over at
// most maxClientConns loopback connections.
//
// The shape of the load follows the repository's controller-overhead
// study (experiments.Fig12, paper §8.5): every application spreads 32
// connections over random host pairs of the fabric, and the controller
// already holds |A| = 50 such applications, the study's smallest bucket.
// A lifecycle therefore makes 2 application calls for every 64
// connection calls (core.RunJobs, which opens nodes × min(8, nodes-1)
// connections per registered job, opens 56 for an eight-node job).
const (
	maxClientConns  = 2
	ctrlConnsPerApp = 32 // Fig12Config.InstancesPerApp
	ctrlPrefillApps = 50 // the smallest Fig12Config.AppCounts bucket
	// ctrlBatch is the closed-loop pass: this many lifecycles pushed
	// through the connections as fast as they are answered.
	ctrlBatch = 16
	// The open-loop phase at the nominal rate: Poisson lifecycle
	// arrivals, each holding its connections for an exponential time.
	// Neither the paper nor the repository gives an arrival rate or a
	// hold time. The nominal rate is half the closed-loop capacity, 47
	// lifecycles per second, measured with this load on two vCPUs of a
	// shared virtual machine. The hold is short, so that by Little's law
	// about one measured application is live at a time and |A| stays in
	// the pre-fill's bucket.
	ctrlNominalRate       = 24.0 // lifecycles per second
	ctrlNominalLifecycles = 100
	ctrlMeanHold          = 20 * time.Millisecond
	// ctrlLatencyLimit is the tail-latency limit of the rate ladder.
	ctrlLatencyLimit = 50 * time.Millisecond
	// ctrlRungLifecycles sizes each ladder rung by samples rather than by
	// time: 2 × 50 application calls put the application class's tail at
	// p90 (ten samples beyond it) and 64 × 50 connection calls put the
	// connection class's at p99, at every rate.
	ctrlRungLifecycles = 50
)

// prefillSeed draws the pre-filled applications.
const prefillSeed = 0x5ab4

// ctrlLadder is the fixed ladder of offered lifecycle rates (per
// second) that max_ops_s is read from: the nominal rate, then steps of
// 1.5x to well past the measured capacity.
var ctrlLadder = []float64{24, 36, 54, 81, 122}

// lifecycle is one application's life: register, k conn_create, a hold,
// k conn_destroy, deregister.
type lifecycle struct {
	name   string
	pairs  [][2]topology.NodeID
	hold   time.Duration
	arrive time.Duration // offset of the register call from phase start

	lib    *sabalib.Library
	conns  []*sabalib.Conn
	failed bool
}

func (lc *lifecycle) steps() int { return 2*len(lc.pairs) + 2 }

// genLifecycles draws n lifecycles. rate > 0 spaces the arrivals as a
// Poisson process at that rate with exponential holds; rate == 0 gives
// a closed-loop batch (no arrival times, no holds).
func genLifecycles(rng *rand.Rand, hosts []topology.NodeID, n int, rate float64) []*lifecycle {
	catalog := workload.Catalog()
	out := make([]*lifecycle, n)
	t := 0.0
	for i := range out {
		lc := &lifecycle{name: catalog[rng.Intn(len(catalog))].Name}
		for c := 0; c < ctrlConnsPerApp; c++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			lc.pairs = append(lc.pairs, [2]topology.NodeID{src, dst})
		}
		if rate > 0 {
			t += rng.ExpFloat64() / rate
			lc.arrive = time.Duration(t * float64(time.Second))
			lc.hold = time.Duration(rng.ExpFloat64() * float64(ctrlMeanHold))
		}
		out[i] = lc
	}
	return out
}

// digestLifecycles folds the generated inputs into h.
func digestLifecycles(h uint64, lcs []*lifecycle) uint64 {
	for _, lc := range lcs {
		for _, c := range []byte(lc.name) {
			h = fnv(h, uint64(c))
		}
		for _, p := range lc.pairs {
			h = fnv(fnv(h, uint64(p[0])), uint64(p[1]))
		}
		h = fnv(fnv(h, uint64(lc.arrive)), uint64(lc.hold))
	}
	return h
}

// ctrlEnv is a running controller behind an RPC server plus the client
// connections the load uses.
type ctrlEnv struct {
	top     *topology.Topology
	wfq     *netsim.WFQ
	ctrl    *controller.Centralized
	srv     *rpc.Server
	conns   []*sabalib.RPCTransport
	traced  []*tracedTransport // parallel to conns; nil untraced
	tracing bool               // calls go through traced
	// The pre-filled applications and their connections.
	prefillApps  []controller.AppID
	prefillConns []controller.ConnID
	ops          atomic.Int64 // operation ids for spans
}

// newCtrlEnv starts the controller on the fabric topology with the
// catalog's sensitivity table, serves it on a loopback port, dials the
// client connections and registers the pre-fill applications.
func newCtrlEnv(seed int64, tr *tracer) (*ctrlEnv, error) {
	top, err := topology.NewSpineLeaf(fabricConfig)
	if err != nil {
		return nil, err
	}
	tab, _, err := experiments.ProfileCatalog(3)
	if err != nil {
		return nil, err
	}
	return startCtrl(top, tab, seed, tr)
}

func startCtrl(top *topology.Topology, tab *profiler.Table, seed int64, tr *tracer) (*ctrlEnv, error) {
	env := &ctrlEnv{top: top, wfq: netsim.NewWFQ(netsim.NewNetwork(top))}
	var enf controller.Enforcer = env.wfq
	if tr != nil {
		enf = &tracedEnforcer{inner: env.wfq, tr: tr}
	}
	ctrl, err := controller.NewCentralized(controller.Config{Topology: top, Table: tab, Enforcer: enf, Seed: seed})
	if err != nil {
		return nil, err
	}
	env.ctrl = ctrl
	var api controller.API = ctrl
	if tr != nil {
		api = &tracedAPI{inner: ctrl, tr: tr}
	}
	env.srv = rpc.NewServer()
	if err := controller.Serve(env.srv, api); err != nil {
		return nil, err
	}
	addr, err := env.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < min(maxClientConns, runtime.NumCPU()); i++ {
		t, err := sabalib.DialController(addr, 10*time.Second)
		if err != nil {
			env.close()
			return nil, err
		}
		env.conns = append(env.conns, t)
		if tr != nil {
			env.traced = append(env.traced, &tracedTransport{inner: t, tr: tr})
		}
	}
	// Pre-fill straight into the controller through the bulk-load path
	// experiments.Fig12 builds its scenarios with: these applications set
	// the scale of every later solve and are not measured. The pre-fill
	// is the same at every seed so that the cost of a call does not move
	// with the seed's draw of the set-up.
	rng := rand.New(rand.NewSource(prefillSeed))
	prefill := genLifecycles(rng, top.Hosts(), ctrlPrefillApps, 0)
	names := make([]string, len(prefill))
	for i, lc := range prefill {
		names[i] = lc.name
	}
	if env.prefillApps, err = ctrl.RegisterBatch(names); err != nil {
		env.close()
		return nil, fmt.Errorf("pre-fill: %w", err)
	}
	for i, lc := range prefill {
		for _, p := range lc.pairs {
			cid, err := ctrl.PreloadConn(env.prefillApps[i], p[0], p[1])
			if err != nil {
				env.close()
				return nil, fmt.Errorf("pre-fill: %w", err)
			}
			env.prefillConns = append(env.prefillConns, cid)
		}
	}
	if _, err := ctrl.RecomputeAll(); err != nil {
		env.close()
		return nil, fmt.Errorf("pre-fill: %w", err)
	}
	return env, nil
}

func (env *ctrlEnv) close() {
	for _, c := range env.conns {
		c.Close()
	}
	env.srv.Close()
}

// transport returns connection i as the library should see it.
func (env *ctrlEnv) transport(i int) sabalib.Transport {
	if env.tracing {
		return env.traced[i]
	}
	return env.conns[i]
}

// drainCheck removes the pre-fill and checks the controller drained: no
// applications, no connections, and no port left configured.
func (env *ctrlEnv) drainCheck(rep *report) {
	for _, cid := range env.prefillConns {
		if err := env.ctrl.ConnDestroy(cid); err != nil {
			rep.fail("pre-fill conn_destroy: %v", err)
		}
	}
	for _, id := range env.prefillApps {
		if err := env.ctrl.Deregister(id); err != nil {
			rep.fail("pre-fill deregister: %v", err)
		}
	}
	if n := env.ctrl.Apps(); n != 0 {
		rep.fail("controller holds %d applications after the run", n)
	}
	if n := env.ctrl.Conns(); n != 0 {
		rep.fail("controller holds %d connections after the run", n)
	}
	configured := 0
	for _, l := range env.top.Links() {
		if env.wfq.Config(l.ID) != nil {
			configured++
		}
	}
	if configured != 0 {
		rep.fail("%d ports still configured after every connection left", configured)
	}
}

// sample is one measured library call.
type sample struct {
	kind       string
	due        time.Duration // offset from phase start
	start, end time.Duration
	idle       bool // the connection was free when the call fell due
	failed     bool
}

func (s sample) latency() time.Duration { return s.end - s.due }

// exec runs step of lc on connection c and returns the call's kind.
func (env *ctrlEnv) exec(c int, lc *lifecycle, step int, opID int64) (string, error) {
	k := len(lc.pairs)
	kind := stepKind(step, k)
	call := func() error {
		switch kind {
		case opRegister:
			lc.lib = sabalib.New(env.transport(c))
			return lc.lib.Register(lc.name)
		case opConnCreate:
			p := lc.pairs[step-1]
			conn, err := lc.lib.ConnCreate(p[0], p[1])
			if err == nil {
				lc.conns = append(lc.conns, conn)
			}
			return err
		case opConnDestroy:
			return lc.conns[step-k-1].Destroy()
		default:
			return lc.lib.Deregister()
		}
	}
	if env.tracing {
		return kind, env.traced[c].libCall(opID, kind, call)
	}
	return kind, call()
}

func stepKind(step, k int) string {
	switch {
	case step == 0:
		return opRegister
	case step <= k:
		return opConnCreate
	case step <= 2*k:
		return opConnDestroy
	}
	return opDeregister
}

// closedLoop pushes lcs through every connection as fast as calls are
// answered: each connection takes the next lifecycle and runs it to the
// end. Latency is service time (each call is due when the previous one
// on its connection returns).
func (env *ctrlEnv) closedLoop(lcs []*lifecycle) []sample {
	var next atomic.Int64
	per := make([][]sample, len(env.conns))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range env.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lcs) {
					return
				}
				lc := lcs[i]
				for step := 0; step < lc.steps() && !lc.failed; step++ {
					start := time.Since(t0)
					kind, err := env.exec(c, lc, step, env.ops.Add(1))
					end := time.Since(t0)
					per[c] = append(per[c], sample{kind: kind, due: start, start: start, end: end, idle: true, failed: err != nil})
					lc.failed = err != nil
				}
			}
		}(c)
	}
	wg.Wait()
	return mergeSamples(per)
}

// dueOp is a call waiting for its due time on one connection.
type dueOp struct {
	due  time.Duration
	lc   *lifecycle
	step int
}

type dueHeap []dueOp

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(dueOp)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// openLoop replays lcs on their arrival schedule. Lifecycle i belongs
// to connection i mod n, as an application process keeps its one
// connection; a call falls due when its predecessor in the lifecycle
// returns (plus the hold, before the first conn_destroy), whether or not
// the connection is free, and is timed from then.
func (env *ctrlEnv) openLoop(lcs []*lifecycle) []sample {
	n := len(env.conns)
	per := make([][]sample, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		h := &dueHeap{}
		for i := c; i < len(lcs); i += n {
			heap.Push(h, dueOp{due: lcs[i].arrive, lc: lcs[i]})
		}
		wg.Add(1)
		go func(c int, h *dueHeap) {
			defer wg.Done()
			var lastEnd time.Duration
			for h.Len() > 0 {
				op := heap.Pop(h).(dueOp)
				if d := op.due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(t0)
				kind, err := env.exec(c, op.lc, op.step, env.ops.Add(1))
				end := time.Since(t0)
				per[c] = append(per[c], sample{kind: kind, due: op.due, start: start, end: end,
					idle: lastEnd <= op.due, failed: err != nil})
				lastEnd = end
				if err != nil {
					op.lc.failed = true
					continue
				}
				if next := op.step + 1; next < op.lc.steps() {
					due := end
					if next == len(op.lc.pairs)+1 {
						due += op.lc.hold
					}
					heap.Push(h, dueOp{due: due, lc: op.lc, step: next})
				}
			}
		}(c, h)
	}
	wg.Wait()
	return mergeSamples(per)
}

func mergeSamples(per [][]sample) []sample {
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// latencyStats summarizes one class of calls.
type latencyStats struct {
	n      int
	p50    float64 // ms
	tail   float64 // ms, at quantile q
	q      float64
	tailOK bool
}

func classStats(ss []sample, kinds ...string) latencyStats {
	var lat []float64
	st := latencyStats{}
	for _, s := range ss {
		for _, k := range kinds {
			if s.kind == k {
				lat = append(lat, float64(s.latency())/1e6)
			}
		}
	}
	st.n = len(lat)
	st.p50 = median(lat)
	st.q, st.tailOK = tailQuantile(len(lat))
	if st.tailOK {
		st.tail = quantile(lat, st.q)
	}
	return st
}

func (st latencyStats) String() string {
	tail := "n/a (fewer than 20 samples)"
	if st.tailOK {
		tail = fmt.Sprintf("p%g=%.4f ms", st.q*100, st.tail)
	}
	return fmt.Sprintf("p50=%.4f ms %s n=%d", st.p50, tail, st.n)
}

// rungResult is one step of the rate ladder.
type rungResult struct {
	rate     float64 // offered lifecycles per second
	opsPerS  float64 // calls completed per second of the rung
	conn     latencyStats
	app      latencyStats
	backlog  bool
	failures int
}

func (r rungResult) passed() bool {
	limit := float64(ctrlLatencyLimit) / 1e6
	return r.failures == 0 && !r.backlog && r.conn.tailOK && r.app.tailOK &&
		r.conn.tail <= limit && r.app.tail <= limit
}

// growingBacklog reports whether calls due in the last quarter of the
// arrival window waited clearly longer for their connection than calls
// due in the first quarter.
func growingBacklog(ss []sample, window time.Duration) bool {
	var first, last []float64
	for _, s := range ss {
		wait := float64(s.start-s.due) / 1e6
		switch {
		case s.due < window/4:
			first = append(first, wait)
		case s.due >= 3*window/4 && s.due < window:
			last = append(last, wait)
		}
	}
	return median(last) > 2*median(first)+1 // ms
}

func runControl(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The client and server goroutines keep every thread busy
	// (calib.go).
	kern := newRefKernel(runtime.GOMAXPROCS(0))
	env, setupS, builds, err := medianSetup(func() (*ctrlEnv, error) { return newCtrlEnv(o.seed, tr) },
		func(e *ctrlEnv) { e.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	rep := newReport()

	hosts := env.top.Hosts()
	rng := rand.New(rand.NewSource(o.seed))
	batch := genLifecycles(rng, hosts, ctrlBatch, 0)
	nominal := genLifecycles(rng, hosts, ctrlNominalLifecycles, ctrlNominalRate)
	ladder := make([][]*lifecycle, len(ctrlLadder))
	for i, rate := range ctrlLadder {
		ladder[i] = genLifecycles(rng, hosts, ctrlRungLifecycles, rate)
	}
	digest := digestLifecycles(fnvOffset, batch)
	digest = digestLifecycles(digest, nominal)
	for _, lcs := range ladder {
		digest = digestLifecycles(digest, lcs)
	}
	rep.infof("input: digest=%016x", digest)
	outcomes := map[string][2]int{} // kind → attempted, failed

	count := func(ss []sample) {
		for _, s := range ss {
			o := outcomes[s.kind]
			o[0]++
			if s.failed {
				o[1]++
			}
			outcomes[s.kind] = o
		}
	}
	fresh := func(lcs []*lifecycle) []*lifecycle {
		out := make([]*lifecycle, len(lcs))
		for i, lc := range lcs {
			c := *lc
			out[i] = &c
		}
		return out
	}

	// Closed-loop passes: the gated cpu_s, wall_s and alloc_mb. A traced run
	// alternates untraced and traced passes. They get what the fixed-size
	// open-loop phases leave of the budget, and at least 30% of it.
	openS := ctrlNominalLifecycles / ctrlNominalRate
	for _, rate := range ctrlLadder {
		openS += ctrlRungLifecycles / rate
	}
	budget := time.Duration(max(o.seconds-openS, 0.3*o.seconds) * float64(time.Second))
	var plainWalls, plainAllocs, plainCPU, tracedWalls []float64
	untilDeadline(budget, 2, func(i int) {
		withTrace := o.trace && i%2 == 1
		setTracing(env, withTrace, tr)
		var ss []sample
		ps := kern.measure(func() { ss = env.closedLoop(fresh(batch)) })
		count(ss)
		if withTrace {
			tracedWalls = append(tracedWalls, ps.wall)
		} else {
			plainWalls = append(plainWalls, ps.wall)
			plainAllocs = append(plainAllocs, ps.alloc)
			plainCPU = append(plainCPU, ps.cpu)
		}
	})
	rep.e2e["alloc_mb"] = metric{median(plainAllocs), "MiB"}
	wallS := median(plainWalls)
	rep.infof("closed-loop passes: %d lifecycles (%d calls) each", ctrlBatch, ctrlBatch*(2*ctrlConnsPerApp+2))
	addTimes(rep, kern, setupS, builds, plainCPU, plainWalls)

	// Open loop at the nominal rate, untraced.
	setTracing(env, false, tr)
	nom := env.openLoop(fresh(nominal))
	count(nom)
	conn, app := classStats(nom, opConnCreate, opConnDestroy), classStats(nom, opRegister, opDeregister)
	rep.infof("nominal %.0f lifecycles/s (open loop, Poisson): conn %s; app %s", ctrlNominalRate, conn, app)

	// The ladder, untraced.
	var maxOps float64
	for i, lcs := range ladder {
		ss := env.openLoop(fresh(lcs))
		count(ss)
		r := rungResult{rate: ctrlLadder[i], conn: classStats(ss, opConnCreate, opConnDestroy),
			app:     classStats(ss, opRegister, opDeregister),
			backlog: growingBacklog(ss, lcs[len(lcs)-1].arrive)}
		var last time.Duration
		for _, s := range ss {
			if s.failed {
				r.failures++
			}
			last = max(last, s.end)
		}
		r.opsPerS = float64(len(ss)) / last.Seconds()
		rep.infof("ladder %.0f lifecycles/s: %.1f calls/s conn %s; app %s backlog=%v pass=%v",
			r.rate, r.opsPerS, r.conn, r.app, r.backlog, r.passed())
		if !r.passed() {
			break
		}
		maxOps = r.opsPerS
	}
	rep.infof("max_ops_s: %.2f calls/s (limit %v on both classes' tail)", maxOps, ctrlLatencyLimit)

	// The traced nominal phase gives the per-layer split of the same
	// calls.
	if o.trace {
		g0 := readGoStats()
		heapS := startHeapSampler()
		tr0 := tr.totals()
		tel0 := readTel()
		setTracing(env, true, tr)
		tnom := env.openLoop(fresh(nominal))
		count(tnom)
		rep.layers = ctrlLayers(tr, tr0, readTel().sub(tel0), tnom)
		tconn, tapp := classStats(tnom, opConnCreate, opConnDestroy), classStats(tnom, opRegister, opDeregister)
		rep.infof("traced nominal: conn %s; app %s", tconn, tapp)
		rep.layers["control.conn_p50_ms"] = metric{conn.p50, "ms"}
		rep.layers["control.conn_tail_ms"] = metric{conn.tail, "ms"}
		rep.layers["control.app_p50_ms"] = metric{app.p50, "ms"}
		rep.layers["control.app_tail_ms"] = metric{app.tail, "ms"}
		rep.layers["control.max_ops_s"] = metric{maxOps, "1/s"}
		rep.layers["trace.overhead_pct"] = metric{overheadPct(median(tracedWalls), wallS), "%"}
		rep.layers["run.wall_s"] = metric{wallS, "s"}
		rep.layers["run.kernel_cpu_s"] = metric{mean(kern.cpu), "s"}
		addGoLayers(rep, g0, heapS.peakMB(), 1)
		fillLayers(rep.layers)
		if err := tr.write(spanFile(o.workload, o.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.infof("trace: overhead %.2f%% of wall time, spans in %s", rep.layers["trace.overhead_pct"].Value, spanFile(o.workload, o.seed))
	}
	for _, kind := range []string{opRegister, opConnCreate, opConnDestroy, opDeregister} {
		oc := outcomes[kind]
		rep.attempted += oc[0]
		rep.failed += oc[1]
		if oc[1] > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("%d of %d %s calls failed", oc[1], oc[0], kind))
		}
		rep.infof("outcome %s: attempted=%d failed=%d", kind, oc[0], oc[1])
	}
	env.drainCheck(rep)
	return rep, nil
}

// setTracing switches a traced run's wrappers on or off: the client
// connections between their traced and plain transports, and the
// server-side wrappers between recording and passing through.
func setTracing(env *ctrlEnv, on bool, tr *tracer) {
	if tr == nil {
		return
	}
	env.tracing = on
	tr.on.Store(on)
}

// ctrlLayers derives the per-layer metrics of the control workload from
// the spans of the traced nominal phase (totals minus those before it).
func ctrlLayers(tr *tracer, before map[string]layerSum, tel telSnap, ss []sample) map[string]metric {
	after := tr.totals()
	d := func(name string) layerSum {
		a, b := after[name], before[name]
		return layerSum{ns: a.ns - b.ns, calls: a.calls - b.calls, items: a.items - b.items}
	}
	l := map[string]metric{}
	perCall := func(ls layerSum) float64 { return ratio(float64(ls.ns)/1e9, float64(ls.calls)) }
	var handleNs, handleCalls int64
	for _, k := range []string{opRegister, opDeregister, opConnCreate, opConnDestroy} {
		h := d("controller.handle." + k)
		l["controller.handle_s."+k] = metric{perCall(h), "s"}
		handleNs += h.ns
		handleCalls += h.calls
	}
	apply := d(spanApply)
	calls := float64(len(ss))
	l["controller.enforce.apply_s"] = metric{float64(apply.ns) / 1e9 / calls, "s"}
	l["controller.enforce.ports_per_op"] = metric{float64(apply.items) / calls, "count"}
	l["controller.self_s"] = metric{float64(handleNs-apply.ns) / 1e9 / calls, "s"}
	rpcCall := d("rpc.call")
	l["rpc.overhead_s"] = metric{float64(rpcCall.ns-handleNs) / 1e9 / calls, "s"}
	l["rpc.bytes_per_call"] = metric{ratio(tel["rpc.client.tx_bytes"]+tel["rpc.client.rx_bytes"], tel["rpc.client.calls"]), "B"}
	var libNs int64
	for _, k := range []string{opRegister, opDeregister, opConnCreate, opConnDestroy} {
		libNs += d("sabalib." + k).ns
	}
	l["sabalib.self_s"] = metric{float64(libNs-rpcCall.ns) / 1e9 / calls, "s"}
	addControllerTel(l, tel, calls)
	var lags, waits []float64
	for _, s := range ss {
		w := float64(s.start-s.due) / 1e6
		if s.idle {
			lags = append(lags, w)
		} else {
			waits = append(waits, w)
		}
	}
	if q, ok := tailQuantile(len(lags)); ok {
		l["gen.lag_tail_ms"] = metric{quantile(lags, q), "ms"}
	}
	sum := 0.0
	for _, w := range waits {
		sum += w
	}
	l["gen.wait_ms"] = metric{sum / calls, "ms"}
	return l
}
