// Package controller implements Saba's bandwidth controller (paper §5):
// it tracks registered applications and their connections, detects each
// connection's switch path from the forwarding tables, assigns
// applications to Priority Levels with k-means over their sensitivity
// coefficients, maps PLs to switch queues with the precomputed clustering
// hierarchy, solves Eq. 2 per switch output port, and pushes the
// resulting queue weights to the switches through an Enforcer.
//
// Both deployment models of §5.4 are provided: Centralized re-clusters on
// every registration change and holds all state; Distributed shards
// switch ownership across controller instances that share an offline
// mapping database.
package controller

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"saba/internal/cluster"
	"saba/internal/netsim"
	"saba/internal/profiler"
	"saba/internal/solver"
	"saba/internal/telemetry"
	"saba/internal/topology"
)

// ctrlMetrics holds the controller instruments (resolved once; the
// enforcement hot path touches only atomics). Both deployments report
// the same inventory so dashboards work across §5.4 variants.
type ctrlMetrics struct {
	solve            *telemetry.Histogram // Eq. 2 full-recompute wall time (Fig. 12)
	ports            *telemetry.Counter   // port configurations pushed
	reclusters       *telemetry.Counter   // app→PL k-means reruns
	rollbacks        *telemetry.Counter   // transactional conn op unwinds
	registers        *telemetry.Counter
	deregisters      *telemetry.Counter
	connCreates      *telemetry.Counter
	connDestroys     *telemetry.Counter
	failovers        *telemetry.Counter // shard failovers (mesh only)
	solHits          *telemetry.Counter // cross-port solution cache hits
	solMisses        *telemetry.Counter // cross-port solution cache misses
	reconverges      *telemetry.Counter // topology-change reconvergence passes
	reconvDegr       *telemetry.Counter // reconvergences past deadline → fair-share
	quarantines      *telemetry.Counter // apps quarantined for profile drift
	unquarants       *telemetry.Counter // apps released from quarantine
	profileRefits    *telemetry.Counter // learned models promoted (learner.go)
	refitRejected    *telemetry.Counter // refits failing validation or the R² bar
	profileRollbacks *telemetry.Counter // promoted models rolled back in probation
	floorLifts       *telemetry.Counter // tenant guarantee water-fill interventions
	admitRejects     *telemetry.Counter // admission-control rejections (admission.go)
	admitQueued      *telemetry.Counter // enforcements deferred to the pending queue
	admitSheds       *telemetry.Counter // pending enforcements shed past deadline
	apps             *telemetry.Gauge
	conns            *telemetry.Gauge
	quarApps         *telemetry.Gauge // apps currently quarantined
	tenants          *telemetry.Gauge
	pendingDepth     *telemetry.Gauge     // admission pending-queue occupancy
	ladderLevel      *telemetry.Gauge     // current degradation-ladder rung (0/1/2)
	enforceLatency   *telemetry.Histogram // request→enforced latency (admission clock)
}

func newCtrlMetrics(reg *telemetry.Registry, deploy string) ctrlMetrics {
	l := func(name string) string { return telemetry.Label(name, "deploy", deploy) }
	return ctrlMetrics{
		solve:            reg.Histogram(l("controller.solve_seconds")),
		ports:            reg.Counter(l("controller.ports_configured")),
		reclusters:       reg.Counter(l("controller.reclusters")),
		rollbacks:        reg.Counter(l("controller.rollbacks")),
		registers:        reg.Counter(l("controller.registers")),
		deregisters:      reg.Counter(l("controller.deregisters")),
		connCreates:      reg.Counter(l("controller.conn_creates")),
		connDestroys:     reg.Counter(l("controller.conn_destroys")),
		failovers:        reg.Counter(l("controller.failovers")),
		solHits:          reg.Counter(l("controller.solcache_hits")),
		solMisses:        reg.Counter(l("controller.solcache_misses")),
		reconverges:      reg.Counter(l("controller.reconverges")),
		reconvDegr:       reg.Counter(l("controller.reconverge_degraded")),
		quarantines:      reg.Counter(l("controller.quarantines")),
		unquarants:       reg.Counter(l("controller.unquarantines")),
		profileRefits:    reg.Counter(l("controller.profile_refits")),
		refitRejected:    reg.Counter(l("controller.refit_rejected")),
		profileRollbacks: reg.Counter(l("controller.profile_rollbacks")),
		floorLifts:       reg.Counter(l("controller.tenant_floor_lifts")),
		admitRejects:     reg.Counter(l("controller.admission_rejects")),
		admitQueued:      reg.Counter(l("controller.admission_queued")),
		admitSheds:       reg.Counter(l("controller.admission_sheds")),
		apps:             reg.Gauge(l("controller.apps")),
		conns:            reg.Gauge(l("controller.conns")),
		quarApps:         reg.Gauge(l("controller.quarantined_apps")),
		tenants:          reg.Gauge(l("controller.tenants")),
		pendingDepth:     reg.Gauge(l("controller.admission_pending")),
		ladderLevel:      reg.Gauge(l("controller.ladder_level")),
		enforceLatency:   reg.Histogram(l("controller.enforce_latency_seconds")),
	}
}

// AppID identifies a registered application (matches the data plane's
// netsim.AppID space so flows can carry it).
type AppID = netsim.AppID

// ConnID identifies a tracked connection.
type ConnID int64

// Enforcer pushes queue configurations to switch output ports. The fluid
// simulator's WFQ allocator implements it; a hardware deployment would
// program SL→VL tables here. Controllers memoize solutions across ports,
// so the cfg passed to Configure may be shared between calls: an
// implementation must copy what it retains and never mutate cfg
// (netsim.WFQ deep-copies).
type Enforcer interface {
	Configure(port topology.LinkID, cfg netsim.PortConfig) error
}

// Deconfigurer is the optional enforcer extension for clearing a port's
// configuration when its last Saba connection leaves, reverting it to
// baseline per-flow fairness (netsim.WFQ implements it). Controllers
// call it best-effort; an enforcer without it just keeps the stale
// (harmless) last config.
type Deconfigurer interface {
	Deconfigure(port topology.LinkID)
}

// deconfigure clears a port's config if the enforcer supports it.
func deconfigure(e Enforcer, port topology.LinkID) {
	if d, ok := e.(Deconfigurer); ok {
		d.Deconfigure(port)
	}
}

// Config parameterizes a controller.
type Config struct {
	Topology *topology.Topology
	Table    *profiler.Table // sensitivity table from the profiler
	Enforcer Enforcer
	// PLs is the number of priority levels the fabric supports
	// (InfiniBand: 16 service levels). 0 selects 16.
	PLs int
	// CSaba is the fraction of link capacity reserved for Saba-compliant
	// applications (paper's C_saba; the evaluation uses 1.0). 0 selects 1.
	CSaba float64
	// MinShare is the floor weight any application keeps (no starvation).
	// 0 lets the optimizer choose min(5%, half the fair share) — the
	// profiled-domain floor.
	MinShare float64
	// Seed makes k-means seeding deterministic.
	Seed int64
	// DefaultCoeffs is the sensitivity model assumed for applications
	// missing from the table (an average-sensitivity profile). nil selects
	// a moderate default.
	DefaultCoeffs []float64
	// PerPortWeights selects the paper's literal per-port Eq. 2 (weights
	// solved over only the applications present at each port) instead of
	// the default hop-consistent global solve. See enforcePortLocked.
	PerPortWeights bool
	// Workers bounds the worker pool that fans per-port solves out
	// during batch enforcement. 0 selects GOMAXPROCS; 1 forces the
	// serial path. Results are bit-identical at any setting.
	Workers int
	// NoSolutionCache disables the cross-port solution memo, forcing a
	// fresh Eq. 2 solve and PL→queue mapping per port. For A/B
	// benchmarking; determinism is unaffected.
	NoSolutionCache bool
	// ReconvergeDeadline bounds a topology-change reconvergence pass
	// (TopologyChanged). If the pass errors or overruns the deadline, the
	// controller degrades every configured port to baseline fair-share —
	// the port-level analogue of PR 1's control-plane degradation — and
	// recovers on the next successful enforcement. 0 disables the
	// watchdog, which also keeps the simulation paths free of wall-clock
	// reads.
	ReconvergeDeadline time.Duration
	// GuaranteeCap bounds the sum of tenant guaranteed minimums the
	// controller will admit, as a fraction of the Saba budget. 0 selects 1
	// (the full budget); values in (0,1) hold back headroom so the Eq. 2
	// solve keeps slack to optimize inside even when every guarantee is
	// claimed. RegisterTenant returns ErrInfeasible past the cap.
	GuaranteeCap float64
	// Admission parameterizes overload protection (see admission.go). The
	// zero value disables it: no rate limiting, no pending queue, every
	// enforcement synchronous — the pre-admission behavior.
	Admission AdmissionConfig
	// Drift parameterizes the profile-drift quarantine (see quarantine.go).
	Drift DriftConfig
	// Telemetry is the registry the controller reports into. nil selects
	// telemetry.Default.
	Telemetry *telemetry.Registry
}

func (c *Config) fill() error {
	if c.Topology == nil {
		return errors.New("controller: nil topology")
	}
	if c.Table == nil {
		return errors.New("controller: nil sensitivity table")
	}
	if c.Enforcer == nil {
		return errors.New("controller: nil enforcer")
	}
	if c.PLs == 0 {
		c.PLs = 16
	}
	if c.PLs < 1 {
		return fmt.Errorf("controller: invalid PL count %d", c.PLs)
	}
	if c.CSaba == 0 {
		c.CSaba = 1
	}
	if c.CSaba <= 0 || c.CSaba > 1 {
		return fmt.Errorf("controller: CSaba %g out of (0,1]", c.CSaba)
	}
	if c.DefaultCoeffs == nil {
		// A moderate sensitivity: slowdown 2x at 25% bandwidth.
		c.DefaultCoeffs = []float64{2.4, -1.87, 0.47}
	}
	if c.GuaranteeCap == 0 {
		c.GuaranteeCap = 1
	}
	if c.GuaranteeCap < 0 || c.GuaranteeCap > 1 {
		return fmt.Errorf("controller: GuaranteeCap %g out of (0,1]", c.GuaranteeCap)
	}
	if err := c.Admission.fill(); err != nil {
		return err
	}
	c.Drift.fill()
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default
	}
	return nil
}

// appState tracks one registered application.
type appState struct {
	id     AppID
	name   string
	coeffs []float64
	pl     int
	conns  int
	tenant TenantID // 0 = untenanted (no guarantee floor)
}

// connState tracks one connection.
type connState struct {
	app  AppID
	src  topology.NodeID
	dst  topology.NodeID
	path []topology.LinkID
}

// portState tracks the applications whose connections cross a port,
// plus a memo of the last successfully enforced input signature: the
// port's sorted app set and the clustering epoch it was computed under.
// A re-enforcement with the same signature is a no-op by construction
// (the Eq. 2 weights and PL→queue mapping depend on nothing else), so
// enforcePortLocked skips it outright.
type portState struct {
	appConns  map[AppID]int // connection count per app
	lastKey   []byte        // appSetKey of the last enforced membership
	lastEpoch uint64        // solEpoch of the last enforcement
}

// Centralized is the centralized controller of §5.4: a single instance
// holding global state, re-clustering on registration changes and
// recomputing weights on connection changes.
type Centralized struct {
	mu    sync.Mutex
	cfg   Config
	apps  map[AppID]*appState
	conns map[ConnID]connState
	ports map[topology.LinkID]*portState

	hier      *cluster.Hierarchy
	plPoints  []cluster.Point // centroid per PL
	minQueues int

	nextApp  AppID
	nextConn ConnID
	rng      *rand.Rand

	// tenants is the guarantee layer above apps (tenant.go): each tenant
	// carries a guaranteed minimum share that solveWeights water-fills
	// into the Eq. 2 output. tenantByName makes registration idempotent —
	// the mechanism that keeps a crash-replayed registration storm from
	// double-counting guarantees.
	tenants      map[TenantID]*tenantState
	tenantByName map[string]TenantID
	nextTenant   TenantID

	// admission is the overload-protection state (admission.go); nil when
	// disabled.
	admission *admissionState

	// sols memoizes complete port configurations (Eq. 2 weights plus
	// PL→queue mapping) per (application set, queue count): many ports
	// carry the same mix of applications, and the configuration depends
	// on nothing else. globalW caches the global solve. Both are
	// invalidated whenever the registered set or PL assignment changes.
	sols    *solutionCache
	globalW map[AppID]float64
	// solEpoch versions the global inputs of a port enforcement (PL
	// assignment, hierarchy, and — under the global strategy — the
	// registered set). Ports remember the epoch they were enforced under
	// (see portState) and sols discards entries from other epochs.
	solEpoch uint64

	// lastTopoEpoch is the topology liveness epoch the last enforcement
	// ran under; a mismatch means links failed or recovered since, so
	// every memoized plan (port memos and the solution cache) is suspect
	// and solEpoch is bumped before any plan is reused.
	lastTopoEpoch uint64
	// degraded records that the last reconvergence overran its deadline
	// (or failed) and the fabric was dropped to baseline fair-share.
	degraded bool

	// drift tracks per-app residuals between observed slowdowns and the
	// polynomial model, driving quarantine (see quarantine.go). Lazily
	// allocated: nil until the first observation.
	drift map[AppID]*driftState

	// lastCalc is how long the most recent full weight recomputation
	// took; the same durations feed tel.solve, whose histogram is the
	// durable Fig. 12 record (LastCalcDuration only sees the latest).
	lastCalc time.Duration
	tel      ctrlMetrics
}

// NewCentralized creates a centralized controller.
func NewCentralized(cfg Config) (*Centralized, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	minQ := 0
	for _, n := range cfg.Topology.Nodes() {
		if n.Queues > 0 && (minQ == 0 || n.Queues < minQ) {
			minQ = n.Queues
		}
	}
	if minQ == 0 {
		minQ = 1
	}
	tel := newCtrlMetrics(cfg.Telemetry, "centralized")
	c := &Centralized{
		cfg:          cfg,
		apps:         map[AppID]*appState{},
		conns:        map[ConnID]connState{},
		ports:        map[topology.LinkID]*portState{},
		tenants:      map[TenantID]*tenantState{},
		tenantByName: map[string]TenantID{},
		minQueues:    minQ,
		nextApp:      1,
		nextConn:     1,
		nextTenant:   1,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		sols:         newSolutionCache(tel.solHits, tel.solMisses),
		tel:          tel,
	}
	c.admission = newAdmissionState(&c.cfg.Admission, tel)
	return c, nil
}

// Errors returned by controller operations.
var (
	ErrUnknownApp  = errors.New("controller: unknown application")
	ErrUnknownConn = errors.New("controller: unknown connection")
	ErrHasConns    = errors.New("controller: application still has connections")
)

// Register admits an application (paper Fig. 7 step ①-③): it looks up the
// sensitivity model, re-runs the application→PL clustering, and returns
// the assigned app ID and PL.
func (c *Centralized) Register(name string) (AppID, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registerLocked(name, 0)
}

// registerLocked admits one application, optionally under a tenant (0 =
// untenanted), re-clusters, and re-enforces. Caller holds mu.
func (c *Centralized) registerLocked(name string, tenant TenantID) (AppID, int, error) {
	coeffs := c.cfg.DefaultCoeffs
	if e, ok := c.cfg.Table.Get(name); ok {
		coeffs = e.Coeffs
	}
	id := c.nextApp
	c.nextApp++
	c.apps[id] = &appState{id: id, name: name, coeffs: coeffs, tenant: tenant}
	if tenant != 0 {
		c.tenants[tenant].apps++
	}
	if err := c.reclusterLocked(); err != nil {
		delete(c.apps, id)
		if tenant != 0 {
			c.tenants[tenant].apps--
		}
		return 0, 0, err
	}
	if err := c.enforceAllLocked(); err != nil {
		return 0, 0, err
	}
	c.tel.registers.Inc()
	c.tel.apps.Set(float64(len(c.apps)))
	return id, c.apps[id].pl, nil
}

// RegisterBatch admits many applications with a single re-clustering
// pass — the bulk-load path used when a controller boots against an
// already-running cluster, and by the overhead study (Fig. 12), where
// registering hundreds of applications one by one would measure k-means
// churn rather than allocation time.
func (c *Centralized) RegisterBatch(names []string) ([]AppID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]AppID, len(names))
	for i, name := range names {
		coeffs := c.cfg.DefaultCoeffs
		if e, ok := c.cfg.Table.Get(name); ok {
			coeffs = e.Coeffs
		}
		id := c.nextApp
		c.nextApp++
		c.apps[id] = &appState{id: id, name: name, coeffs: coeffs}
		ids[i] = id
	}
	if err := c.reclusterLocked(); err != nil {
		for _, id := range ids {
			delete(c.apps, id)
		}
		return nil, err
	}
	c.tel.registers.Add(uint64(len(ids)))
	c.tel.apps.Set(float64(len(c.apps)))
	return ids, c.enforceAllLocked()
}

// PreloadConn records a connection without recomputing any port weights;
// callers follow up with RecomputeAll. It exists for bulk scenario
// construction (the Fig. 12 overhead study loads tens of thousands of
// connections before timing one full recomputation).
func (c *Centralized) PreloadConn(id AppID, src, dst topology.NodeID) (ConnID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	app, ok := c.apps[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	path, err := c.cfg.Topology.Route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("controller: path detection: %w", err)
	}
	cid := c.nextConn
	c.nextConn++
	c.conns[cid] = connState{app: id, src: src, dst: dst, path: path}
	app.conns++
	c.addPathLocked(id, path)
	return cid, nil
}

// Deregister removes an application with no remaining connections.
// Deliberately, no re-clustering happens here: renumbering PLs under
// applications whose live connections already carry their Service Level
// would desynchronize packets from the switch tables. The departed app's
// weight is reclaimed by re-enforcing every port; the next registration
// re-clusters.
func (c *Centralized) Deregister(id AppID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	app, ok := c.apps[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	if app.conns > 0 {
		return fmt.Errorf("%w: %d has %d", ErrHasConns, id, app.conns)
	}
	delete(c.apps, id)
	if app.tenant != 0 {
		if t := c.tenants[app.tenant]; t != nil {
			t.apps--
		}
	}
	if c.drift[id] != nil {
		delete(c.drift, id)
		c.updateQuarGaugeLocked()
	}
	if len(c.apps) == 0 {
		c.hier = nil
		c.plPoints = nil
	}
	c.globalW = nil
	if !c.cfg.PerPortWeights {
		// The global solve spans every registered app, so departures
		// change the surviving apps' weights at unchanged ports. The
		// epoch bump also invalidates the solution cache. (Under
		// PerPortWeights neither holds: a departed app had no
		// connections, so no port's app set — and no cache key —
		// references it, and per-set solutions stay valid.)
		c.solEpoch++
	}
	c.tel.deregisters.Inc()
	c.tel.apps.Set(float64(len(c.apps)))
	return c.enforceAllLocked()
}

// PL returns the current priority level of an application.
func (c *Centralized) PL(id AppID) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	app, ok := c.apps[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	return app.pl, nil
}

// ConnCreate records a connection (Fig. 7 steps ④-⑦): it detects the
// path from the forwarding tables and reconfigures every port on it.
// The operation is transactional: if any port's enforcement fails, the
// port counters are rolled back, the touched ports are re-enforced with
// their pre-call membership, and no connection state is committed.
// With admission control enabled the create is first gated through the
// tenant's rate budget (typed RejectedError on exhaustion) and the
// enforcement follows the degradation ladder (admission.go).
func (c *Centralized) ConnCreate(id AppID, src, dst topology.NodeID) (ConnID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	app, ok := c.apps[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	if err := c.admitConnLocked(app.tenant); err != nil {
		return 0, err
	}
	path, err := c.cfg.Topology.Route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("controller: path detection: %w", err)
	}
	c.addPathLocked(id, path)
	if err := c.enforcePathAdmittedLocked(path); err != nil {
		c.removePathLocked(id, path)
		c.reenforceBestEffortLocked(path)
		c.tel.rollbacks.Inc()
		return 0, err
	}
	cid := c.nextConn
	c.nextConn++
	c.conns[cid] = connState{app: id, src: src, dst: dst, path: path}
	app.conns++
	c.tel.connCreates.Inc()
	c.tel.conns.Set(float64(len(c.conns)))
	return cid, nil
}

// ConnDestroy removes a connection (Fig. 7 steps ⑧-⑪) and reallocates the
// ports it crossed. On an enforcement failure the port counters are
// restored and the connection stays tracked.
func (c *Centralized) ConnDestroy(cid ConnID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, ok := c.conns[cid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownConn, cid)
	}
	c.removePathLocked(conn.app, conn.path)
	if err := c.enforcePathAdmittedLocked(conn.path); err != nil {
		c.addPathLocked(conn.app, conn.path)
		c.reenforceBestEffortLocked(conn.path)
		c.tel.rollbacks.Inc()
		return err
	}
	delete(c.conns, cid)
	if app, ok := c.apps[conn.app]; ok {
		app.conns--
	}
	c.tel.connDestroys.Inc()
	c.tel.conns.Set(float64(len(c.conns)))
	return nil
}

// addPathLocked increments the per-port membership of an app's
// connection along a path.
func (c *Centralized) addPathLocked(id AppID, path []topology.LinkID) {
	for _, l := range path {
		ps := c.ports[l]
		if ps == nil {
			ps = &portState{appConns: map[AppID]int{}}
			c.ports[l] = ps
		}
		ps.appConns[id]++
	}
}

// removePathLocked undoes addPathLocked, deconfiguring emptied ports.
func (c *Centralized) removePathLocked(id AppID, path []topology.LinkID) {
	for _, l := range path {
		ps := c.ports[l]
		if ps == nil {
			continue
		}
		ps.appConns[id]--
		if ps.appConns[id] <= 0 {
			delete(ps.appConns, id)
		}
		if len(ps.appConns) == 0 {
			delete(c.ports, l)
			deconfigure(c.cfg.Enforcer, l)
		}
	}
}

// reenforceBestEffortLocked re-pushes the current (rolled-back) state of
// a path's ports, ignoring enforcement errors.
func (c *Centralized) reenforceBestEffortLocked(path []topology.LinkID) {
	for _, l := range path {
		if c.ports[l] != nil {
			_ = c.enforcePortLocked(l)
		}
	}
}

// Apps returns the registered application count.
func (c *Centralized) Apps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.apps)
}

// Conns returns the tracked connection count.
func (c *Centralized) Conns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// LastCalcDuration reports the wall-clock time of the most recent full
// weight recomputation (Fig. 12's metric).
func (c *Centralized) LastCalcDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastCalc
}

// RecomputeAll recomputes and enforces the weights of every active port,
// returning the wall-clock calculation time.
func (c *Centralized) RecomputeAll() (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.solEpoch++ // force: bypass every port's enforcement memo
	if err := c.enforceAllLocked(); err != nil {
		return 0, err
	}
	return c.lastCalc, nil
}

// reclusterLocked re-runs the application→PL k-means and rebuilds the
// PL hierarchy (paper §5.3). Caller holds mu.
func (c *Centralized) reclusterLocked() error {
	c.globalW = nil
	if len(c.apps) == 0 {
		return nil
	}
	c.tel.reclusters.Inc()
	ids := make([]AppID, 0, len(c.apps))
	for id := range c.apps {
		ids = append(ids, id)
	}
	// Deterministic order for reproducible clustering.
	slices.Sort(ids)
	dim := 0
	for _, id := range ids {
		if len(c.apps[id].coeffs) > dim {
			dim = len(c.apps[id].coeffs)
		}
	}
	points := make([]cluster.Point, len(ids))
	for i, id := range ids {
		p := make(cluster.Point, dim)
		copy(p, c.apps[id].coeffs)
		points[i] = p
	}
	res, err := cluster.KMeans(points, c.cfg.PLs, c.rng)
	if err != nil {
		return fmt.Errorf("controller: app→PL clustering: %w", err)
	}
	for i, id := range ids {
		c.apps[id].pl = res.Assignment[i]
	}
	c.plPoints = res.Centroids
	hier, err := cluster.BuildHierarchy(res.Centroids, c.minQueues)
	if err != nil {
		return fmt.Errorf("controller: PL hierarchy: %w", err)
	}
	c.hier = hier
	c.solEpoch++
	return nil
}

// enforceAllLocked recomputes every active port (concurrently when the
// batch is large enough), timing the whole batch once into both
// LastCalcDuration and the solve-time histogram (Fig. 12).
func (c *Centralized) enforceAllLocked() error {
	ports := make([]topology.LinkID, 0, len(c.ports))
	for l := range c.ports {
		ports = append(ports, l)
	}
	slices.Sort(ports)
	return c.enforceBatchLocked(ports)
}

// enforcePortsLocked recomputes the unique ports of a path as one timed
// batch.
func (c *Centralized) enforcePortsLocked(path []topology.LinkID) error {
	return c.enforceBatchLocked(uniquePorts(path))
}

// enforceBatchLocked is the single enforcement entry point: it computes
// a plan per port — fanned out across the worker pool — and applies the
// plans through the Enforcer in ascending port order. Exactly one
// solve-histogram sample is recorded per batch, whoever the caller is;
// per-port paths (rollback re-enforcement) go through enforcePortLocked
// and record nothing.
func (c *Centralized) enforceBatchLocked(ports []topology.LinkID) error {
	c.syncTopoEpochLocked()
	start := time.Now()
	defer func() {
		c.lastCalc = time.Since(start)
		c.tel.solve.Observe(c.lastCalc.Seconds())
	}()
	plans, err := c.computePlansLocked(ports)
	if err != nil {
		return err
	}
	for i := range plans {
		if err := c.applyPlanLocked(&plans[i]); err != nil {
			return err
		}
	}
	return nil
}

// computePlansLocked computes every port's configuration without
// touching the enforcer or any port memo. The per-port computations
// only read state that is fixed for the duration of the batch (the app
// registry, PL assignment, hierarchy, port memberships and the global
// solve), so they run concurrently on the worker pool; see parallel.go
// for the determinism argument.
func (c *Centralized) computePlansLocked(ports []topology.LinkID) ([]portPlan, error) {
	if len(ports) == 0 || c.hier == nil {
		return nil, nil
	}
	if !c.cfg.PerPortWeights && len(c.apps) > 0 {
		// The global solve is shared by every port: do it once, up
		// front, so workers only read the result.
		if _, err := c.globalWeightsLocked(); err != nil {
			return nil, err
		}
	}
	return computePlans(len(ports), resolveWorkers(c.cfg.Workers),
		func(i int, sc *planScratch) (portPlan, error) {
			return c.computePortPlan(ports[i], sc)
		})
}

// computePortPlan computes one port's target configuration. It is
// read-only with respect to controller state and safe to call from
// several workers at once (sc is per-worker scratch).
func (c *Centralized) computePortPlan(port topology.LinkID, sc *planScratch) (portPlan, error) {
	ps := c.ports[port]
	if ps == nil || len(ps.appConns) == 0 || c.hier == nil {
		return portPlan{port: port, skip: true}, nil
	}
	// Applications with flows through this port, in deterministic order.
	ids := sc.ids[:0]
	for id := range ps.appConns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sc.ids = ids
	key := appendAppSetKey(sc.key[:0], ids)
	if ps.lastEpoch == c.solEpoch && string(ps.lastKey) == string(key) {
		sc.key = key
		return portPlan{port: port, skip: true}, nil // same apps, same clustering: already live
	}
	keyLen := len(key)
	queues := c.cfg.Topology.QueuesAt(port)
	if queues < 1 {
		queues = 1
	}
	var cfg netsim.PortConfig
	var err error
	if c.cfg.NoSolutionCache {
		cfg, err = c.buildPortConfig(ids, port, queues)
	} else {
		// Cache key: app set + queue count (ports differing only in
		// queue count need different mappings).
		key = appendVarint(key, uint64(queues))
		cfg, err = c.sols.get(c.solEpoch, key, func() (netsim.PortConfig, error) {
			return c.buildPortConfig(ids, port, queues)
		})
	}
	sc.key = key
	if err != nil {
		return portPlan{}, err
	}
	return portPlan{
		port: port,
		cfg:  cfg,
		key:  append([]byte(nil), key[:keyLen]...),
	}, nil
}

// buildPortConfig computes the Eq. 2 weights and PL→queue mapping for a
// (sorted) application set at a port (paper §5.1-§5.3).
func (c *Centralized) buildPortConfig(ids []AppID, port topology.LinkID, queues int) (netsim.PortConfig, error) {
	weights, err := c.weightsFor(ids, port)
	if err != nil {
		return netsim.PortConfig{}, err
	}

	// PL→queue mapping for the PLs present at this port.
	present := map[int]bool{}
	for _, id := range ids {
		present[c.apps[id].pl] = true
	}
	presentPLs := make([]int, 0, len(present))
	for pl := range present {
		presentPLs = append(presentPLs, pl)
	}
	slices.Sort(presentPLs)
	clusters, errMap := c.hier.MapToQueues(presentPLs, queues)
	if errMap != nil {
		return netsim.PortConfig{}, fmt.Errorf("controller: PL→queue on port %d: %w", port, errMap)
	}

	// Queue weight = Σ of the Eq. 2 weights of the applications mapped to
	// it (§5.3.2).
	plToQueue := map[int]int{}
	for q, cl := range clusters {
		for _, pl := range cl.Members {
			plToQueue[pl] = q
		}
	}
	qWeights := make([]float64, len(clusters))
	for i, id := range ids {
		q, ok := plToQueue[c.apps[id].pl]
		if !ok {
			// PL not in the mapping (cannot happen: built from present set)
			continue
		}
		qWeights[q] += weights[i]
	}
	return netsim.PortConfig{
		Weights:      qWeights,
		PLQueue:      plToQueue,
		DefaultQueue: defaultQueue(qWeights),
	}, nil
}

// applyPlanLocked pushes a computed plan to the enforcer and updates the
// port's enforcement memo. Called serially, in ascending port order.
func (c *Centralized) applyPlanLocked(p *portPlan) error {
	if p.skip {
		return nil
	}
	ps := c.ports[p.port]
	if ps == nil {
		return nil
	}
	if err := c.cfg.Enforcer.Configure(p.port, p.cfg); err != nil {
		return err
	}
	ps.lastKey = append(ps.lastKey[:0], p.key...)
	ps.lastEpoch = c.solEpoch
	c.tel.ports.Inc()
	return nil
}

// enforcePortLocked recomputes and pushes a single port outside any
// timed batch — the rollback re-enforcement path.
func (c *Centralized) enforcePortLocked(port topology.LinkID) error {
	c.syncTopoEpochLocked()
	var sc planScratch
	plan, err := c.computePortPlan(port, &sc)
	if err != nil {
		return err
	}
	return c.applyPlanLocked(&plan)
}

// syncTopoEpochLocked invalidates every memoized plan when the topology's
// liveness epoch moved since the last enforcement: a link failure or
// recovery can change a port's capacity context or queue set, so a stale
// cached (app set, queue count) plan must never be applied afterwards.
// With a static topology the epoch never moves and this is a no-op.
func (c *Centralized) syncTopoEpochLocked() {
	if ep := c.cfg.Topology.Epoch(); ep != c.lastTopoEpoch {
		c.lastTopoEpoch = ep
		c.solEpoch++
	}
}

// weightsFor returns the Eq. 2 weights for the given (sorted) apps at a
// port. Two weighting strategies are supported:
//
//   - Global (default): Eq. 2 is solved once over every registered
//     application, and each port's queues carry the global weights of the
//     applications present there. Flows cross several switches, and a
//     flow's rate is governed by its *minimum* share along the path;
//     solving each port in isolation gives the same application different
//     relative weights at different hops, and the per-hop minima
//     systematically under-serve everyone. Hop-consistent ratios avoid
//     that composition loss.
//   - PerPortWeights: the paper's literal formulation — Eq. 2 over only
//     the applications whose connections cross this port. This bypasses
//     the shared global solve entirely; cross-port sharing then comes
//     from the solution cache alone.
func (c *Centralized) weightsFor(ids []AppID, port topology.LinkID) ([]float64, error) {
	if !c.cfg.PerPortWeights {
		// The batch precomputed the global solve; select the present
		// apps' weights (ratios preserved; WFQ normalizes per port).
		global := c.globalW
		if global == nil {
			return nil, errors.New("controller: global solve missing (batch precompute skipped)")
		}
		weights := make([]float64, len(ids))
		for i, id := range ids {
			weights[i] = global[id]
		}
		return weights, nil
	}
	weights, err := c.solveWeights(ids)
	if err != nil {
		return nil, fmt.Errorf("controller: Eq.2 on port %d: %w", port, err)
	}
	return weights, nil
}

// solveWeights runs Eq. 2 over the (sorted) apps, pinning quarantined
// applications at the plain fair share CSaba/len(ids) and solving the
// model-driven optimization over the remainder with the leftover budget.
// Tenant guarantee floors are then water-filled into the result
// (tenant.go); with nothing quarantined and no tenants (the steady
// state) this is exactly the original solve. Read-only with respect to
// controller state; safe from plan workers.
func (c *Centralized) solveWeights(ids []AppID) ([]float64, error) {
	weights, err := c.solveModelWeights(ids)
	if err != nil {
		return nil, err
	}
	return c.applyTenantFloors(ids, weights), nil
}

// solveModelWeights is the pre-tenant Eq. 2 solve with quarantine
// pinning.
func (c *Centralized) solveModelWeights(ids []AppID) ([]float64, error) {
	fair := c.cfg.CSaba / float64(len(ids))
	nq := 0
	for _, id := range ids {
		if ds := c.drift[id]; ds != nil && ds.quarantined {
			nq++
		}
	}
	if nq == len(ids) {
		weights := make([]float64, len(ids))
		for i := range weights {
			weights[i] = fair
		}
		return weights, nil
	}
	modeled := ids
	if nq > 0 {
		modeled = make([]AppID, 0, len(ids)-nq)
		for _, id := range ids {
			if ds := c.drift[id]; ds == nil || !ds.quarantined {
				modeled = append(modeled, id)
			}
		}
	}
	objs := make([]solver.Objective, len(modeled))
	for i, id := range modeled {
		objs[i] = solver.NewMonotonePoly(c.apps[id].coeffs)
	}
	solved, err := solver.Minimize(objs, solver.Options{
		Total:    c.cfg.CSaba - fair*float64(nq),
		MinShare: c.cfg.MinShare,
	})
	if err != nil {
		return nil, err
	}
	if nq == 0 {
		return solved, nil
	}
	weights := make([]float64, len(ids))
	k := 0
	for i, id := range ids {
		if ds := c.drift[id]; ds != nil && ds.quarantined {
			weights[i] = fair
		} else {
			weights[i] = solved[k]
			k++
		}
	}
	return weights, nil
}

// globalWeightsLocked solves Eq. 2 once over all registered applications.
func (c *Centralized) globalWeightsLocked() (map[AppID]float64, error) {
	if c.globalW != nil {
		return c.globalW, nil
	}
	all := make([]AppID, 0, len(c.apps))
	for id := range c.apps {
		all = append(all, id)
	}
	slices.Sort(all)
	weights, err := c.solveWeights(all)
	if err != nil {
		return nil, fmt.Errorf("controller: global Eq.2: %w", err)
	}
	c.globalW = make(map[AppID]float64, len(all))
	for i, id := range all {
		c.globalW[id] = weights[i]
	}
	return c.globalW, nil
}

// appendAppSetKey appends the encoding of a sorted application-ID set.
func appendAppSetKey(b []byte, ids []AppID) []byte {
	for _, id := range ids {
		b = appendVarint(b, uint64(id))
	}
	return b
}

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
