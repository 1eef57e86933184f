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

// MappingDB is the shared database of the distributed design (§5.4): the
// profiler computes the application→PL mapping and the PL clustering
// hierarchy offline over the full sensitivity table and stores them here;
// the distributed controllers only read. Because the mapping is built
// from profiled applications rather than the live registered set, it can
// be slightly stale — the accuracy/scalability trade-off the paper
// measures in study 7 (1.23x vs 1.27x speedup).
type MappingDB struct {
	mu      sync.RWMutex
	plOf    map[string]int // workload name → PL
	coeffs  map[string][]float64
	hier    *cluster.Hierarchy
	defCoef []float64
	defPL   int
}

// BuildMappingDB clusters every profiled application into PLs and builds
// the hierarchy, exactly as the profiler does after each profiling run.
func BuildMappingDB(table *profiler.Table, pls, minQueues int, seed int64) (*MappingDB, error) {
	names := table.Names()
	if len(names) == 0 {
		return nil, errors.New("controller: empty sensitivity table")
	}
	dim := 0
	coeffs := map[string][]float64{}
	for _, n := range names {
		e, ok := table.Get(n)
		if !ok {
			continue
		}
		coeffs[n] = e.Coeffs
		if len(e.Coeffs) > dim {
			dim = len(e.Coeffs)
		}
	}
	points := make([]cluster.Point, len(names))
	for i, n := range names {
		p := make(cluster.Point, dim)
		copy(p, coeffs[n])
		points[i] = p
	}
	res, err := cluster.KMeans(points, pls, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("controller: offline app→PL clustering: %w", err)
	}
	hier, err := cluster.BuildHierarchy(res.Centroids, minQueues)
	if err != nil {
		return nil, fmt.Errorf("controller: offline PL hierarchy: %w", err)
	}
	db := &MappingDB{
		plOf:    map[string]int{},
		coeffs:  coeffs,
		hier:    hier,
		defCoef: []float64{2.4, -1.87, 0.47},
	}
	for i, n := range names {
		db.plOf[n] = res.Assignment[i]
	}
	// Unknown applications borrow the PL of the densest cluster.
	counts := make([]int, len(res.Centroids))
	for _, a := range res.Assignment {
		counts[a]++
	}
	for pl, n := range counts {
		if n > counts[db.defPL] {
			db.defPL = pl
		}
	}
	return db, nil
}

// Lookup returns the PL and coefficients for an application name.
func (db *MappingDB) Lookup(name string) (pl int, coeffs []float64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if p, ok := db.plOf[name]; ok {
		return p, db.coeffs[name]
	}
	return db.defPL, db.defCoef
}

// Hierarchy returns the offline PL clustering hierarchy.
func (db *MappingDB) Hierarchy() *cluster.Hierarchy {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.hier
}

// Distributed is one shard of the distributed controller: it owns a
// subset of the switches and maintains only the port state of those
// switches. Connection setup walks the path shard by shard (the paper's
// "communicating with the next controller on the path"), implemented by
// the Mesh coordinator below.
type Distributed struct {
	mu       sync.Mutex
	id       int
	db       *MappingDB
	topo     *topology.Topology
	enforcer Enforcer
	owned    map[topology.NodeID]bool // switches this shard owns
	ports    map[topology.LinkID]*portState
	appPL    map[AppID]int
	appCoef  map[AppID][]float64
	csaba    float64
	minShare float64
	// sols memoizes full port configurations per (app set, queue
	// count); gen is its epoch, bumped whenever the shard's app table
	// changes so stale solutions can never be served.
	sols *solutionCache
	gen  uint64
	dead bool
	tel  *ctrlMetrics // shared with the owning Mesh
}

// Mesh is the collective of distributed controller shards plus the shared
// registration state (app IDs are global, like the subnet manager's LID
// space).
type Mesh struct {
	mu       sync.Mutex
	shards   []*Distributed
	ownerOf  map[topology.NodeID]*Distributed
	topo     *topology.Topology
	db       *MappingDB
	apps     map[AppID]string
	appConns map[AppID]int
	conns    map[ConnID]connState
	nextApp  AppID
	nextConn ConnID
	lastCalc time.Duration
	tel      ctrlMetrics
}

// SetTelemetry rebinds the mesh's (and its shards') instruments to a
// registry; call it right after NewMesh, before serving traffic.
func (m *Mesh) SetTelemetry(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tel = newCtrlMetrics(reg, "mesh")
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.tel = &m.tel
		// Rebuild the solution cache so its hit/miss counters follow
		// the new registry (drops any cached entries; callers rebind
		// right after NewMesh, before serving traffic).
		sh.sols = newSolutionCache(m.tel.solHits, m.tel.solMisses)
		sh.mu.Unlock()
	}
}

// NewMesh builds `shards` distributed controllers over the topology,
// assigning switches round-robin, all enforcing through the same
// enforcer (in a hardware deployment each shard programs its own
// switches).
func NewMesh(topo *topology.Topology, db *MappingDB, enforcer Enforcer, shards int, csaba, minShare float64) (*Mesh, error) {
	if shards < 1 {
		return nil, fmt.Errorf("controller: need at least one shard, got %d", shards)
	}
	if csaba == 0 {
		csaba = 1
	}
	m := &Mesh{
		ownerOf:  map[topology.NodeID]*Distributed{},
		topo:     topo,
		db:       db,
		apps:     map[AppID]string{},
		appConns: map[AppID]int{},
		conns:    map[ConnID]connState{},
		nextApp:  1,
		nextConn: 1,
		tel:      newCtrlMetrics(telemetry.Default, "mesh"),
	}
	for i := 0; i < shards; i++ {
		m.shards = append(m.shards, &Distributed{
			id:       i,
			db:       db,
			topo:     topo,
			enforcer: enforcer,
			owned:    map[topology.NodeID]bool{},
			ports:    map[topology.LinkID]*portState{},
			appPL:    map[AppID]int{},
			appCoef:  map[AppID][]float64{},
			csaba:    csaba,
			minShare: minShare,
			sols:     newSolutionCache(m.tel.solHits, m.tel.solMisses),
			tel:      &m.tel,
		})
	}
	// Hosts' egress ports are owned alongside their switch? Assign every
	// node (hosts included — their NIC VL arbiters are configured too)
	// round-robin across shards.
	for i, n := range topo.Nodes() {
		sh := m.shards[i%shards]
		sh.owned[n.ID] = true
		m.ownerOf[n.ID] = sh
	}
	return m, nil
}

// Register assigns a global app ID and fetches the offline PL from the
// database — no re-clustering happens online (§5.4).
func (m *Mesh) Register(name string) (AppID, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextApp
	m.nextApp++
	m.apps[id] = name
	pl, coeffs := m.db.Lookup(name)
	for _, sh := range m.shards {
		sh.admit(id, pl, coeffs)
	}
	m.tel.registers.Inc()
	m.tel.apps.Set(float64(len(m.apps)))
	return id, pl, nil
}

// Deregister removes an application with no remaining connections.
func (m *Mesh) Deregister(id AppID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.apps[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	if m.appConns[id] > 0 {
		return fmt.Errorf("%w: %d", ErrHasConns, id)
	}
	delete(m.apps, id)
	delete(m.appConns, id)
	for _, sh := range m.shards {
		sh.evict(id)
	}
	m.tel.deregisters.Inc()
	m.tel.apps.Set(float64(len(m.apps)))
	return nil
}

// PL returns the (offline, immutable) priority level of an application.
func (m *Mesh) PL(id AppID) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name, ok := m.apps[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	pl, _ := m.db.Lookup(name)
	return pl, nil
}

// ConnCreate detects the path and walks it shard by shard: each shard
// updates and enforces the ports it owns, then hands off to the next.
// The walk is transactional: if any hop fails, the hops already applied
// are un-enforced and no mesh state is committed, so a mid-path
// enforcement failure cannot leak connection or port state.
func (m *Mesh) ConnCreate(id AppID, src, dst topology.NodeID) (ConnID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.apps[id]; !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownApp, id)
	}
	path, err := m.topo.Route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("controller: path detection: %w", err)
	}
	start := time.Now()
	defer func() {
		m.lastCalc = time.Since(start)
		m.tel.solve.Observe(m.lastCalc.Seconds())
	}()
	hops := shardHops(m.ownerOf, m.topo, path)
	var applied []shardHop
	for _, hop := range hops {
		if err := hop.shard.addConn(id, hop.ports); err != nil {
			for k := len(applied) - 1; k >= 0; k-- {
				// Best-effort unwind; addConn already rolled back the
				// failing hop's own partial ports.
				_ = applied[k].shard.removeConn(id, applied[k].ports)
			}
			m.tel.rollbacks.Inc()
			return 0, err
		}
		applied = append(applied, hop)
	}
	cid := m.nextConn
	m.nextConn++
	m.conns[cid] = connState{app: id, src: src, dst: dst, path: path}
	m.appConns[id]++
	m.tel.connCreates.Inc()
	m.tel.conns.Set(float64(len(m.conns)))
	return cid, nil
}

// ConnDestroy removes a connection and re-enforces the affected shards.
// Like ConnCreate, it is transactional: a failed hop re-applies the hops
// already removed and keeps the connection tracked.
func (m *Mesh) ConnDestroy(cid ConnID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	conn, ok := m.conns[cid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownConn, cid)
	}
	start := time.Now()
	defer func() {
		m.lastCalc = time.Since(start)
		m.tel.solve.Observe(m.lastCalc.Seconds())
	}()
	hops := shardHops(m.ownerOf, m.topo, conn.path)
	var removed []shardHop
	for _, hop := range hops {
		if err := hop.shard.removeConn(conn.app, hop.ports); err != nil {
			for k := len(removed) - 1; k >= 0; k-- {
				_ = removed[k].shard.addConn(conn.app, removed[k].ports)
			}
			m.tel.rollbacks.Inc()
			return err
		}
		removed = append(removed, hop)
	}
	delete(m.conns, cid)
	m.appConns[conn.app]--
	if m.appConns[conn.app] <= 0 {
		delete(m.appConns, conn.app)
	}
	m.tel.connDestroys.Inc()
	m.tel.conns.Set(float64(len(m.conns)))
	return nil
}

// Errors returned by the failover path.
var (
	ErrShardDead = errors.New("controller: shard is dead")
	ErrLastShard = errors.New("controller: cannot kill the last live shard")
)

// KillShard marks a shard dead and fails its switches over to the
// surviving shards: ownership is reassigned round-robin and the affected
// port state is replayed from the mesh's connection log (`conns` is the
// recovery source of truth), so every moved port ends up enforced with
// exactly the weights it had before the failure.
func (m *Mesh) KillShard(idx int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx < 0 || idx >= len(m.shards) {
		return fmt.Errorf("controller: no shard %d", idx)
	}
	victim := m.shards[idx]
	if victim.isDead() {
		return fmt.Errorf("%w: %d", ErrShardDead, idx)
	}
	var survivors []*Distributed
	for _, sh := range m.shards {
		if sh != victim && !sh.isDead() {
			survivors = append(survivors, sh)
		}
	}
	if len(survivors) == 0 {
		return ErrLastShard
	}
	victim.kill()
	m.tel.failovers.Inc()
	// Reassign the victim's nodes round-robin across survivors.
	moved := map[topology.NodeID]bool{}
	i := 0
	for _, n := range m.topo.Nodes() {
		if m.ownerOf[n.ID] != victim {
			continue
		}
		heir := survivors[i%len(survivors)]
		i++
		m.ownerOf[n.ID] = heir
		heir.own(n.ID)
		moved[n.ID] = true
	}
	// Replay the moved ports from the connection log.
	var firstErr error
	for _, conn := range m.conns {
		for _, l := range conn.path {
			lk, err := m.topo.Link(l)
			if err != nil || !moved[lk.From] {
				continue
			}
			if err := m.ownerOf[lk.From].addConn(conn.app, []topology.LinkID{l}); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("controller: failover replay of port %d: %w", l, err)
			}
		}
	}
	return firstErr
}

// AliveShards counts the shards still serving.
func (m *Mesh) AliveShards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, sh := range m.shards {
		if !sh.isDead() {
			n++
		}
	}
	return n
}

// Apps returns the registered application count.
func (m *Mesh) Apps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.apps)
}

// Conns returns the tracked connection count.
func (m *Mesh) Conns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// LastCalcDuration reports the most recent allocation walk's duration.
func (m *Mesh) LastCalcDuration() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastCalc
}

// shardHop groups consecutive path ports by owning shard.
type shardHop struct {
	shard *Distributed
	ports []topology.LinkID
}

func shardHops(ownerOf map[topology.NodeID]*Distributed, topo *topology.Topology, path []topology.LinkID) []shardHop {
	var hops []shardHop
	for _, l := range path {
		lk, err := topo.Link(l)
		if err != nil {
			continue
		}
		owner := ownerOf[lk.From]
		if owner == nil {
			continue
		}
		if len(hops) > 0 && hops[len(hops)-1].shard == owner {
			hops[len(hops)-1].ports = append(hops[len(hops)-1].ports, l)
			continue
		}
		hops = append(hops, shardHop{shard: owner, ports: []topology.LinkID{l}})
	}
	return hops
}

// admit introduces an application to the shard.
func (d *Distributed) admit(id AppID, pl int, coeffs []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.appPL[id] = pl
	d.appCoef[id] = coeffs
	d.gen++ // invalidate memoized solutions
}

// evict removes an application from the shard.
func (d *Distributed) evict(id AppID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.appPL, id)
	delete(d.appCoef, id)
	d.gen++ // invalidate memoized solutions
}

// isDead reports whether the shard has been killed.
func (d *Distributed) isDead() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead
}

// kill marks the shard dead and drops its port state: its switches are
// about to be re-owned and replayed by the survivors.
func (d *Distributed) kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = true
	d.owned = map[topology.NodeID]bool{}
	d.ports = map[topology.LinkID]*portState{}
	d.gen++ // invalidate memoized solutions
}

// own transfers a node to this shard during failover.
func (d *Distributed) own(n topology.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.owned[n] = true
}

// addConn registers a connection on the shard's ports and re-enforces.
// On an enforcement failure it rolls back its own partial port updates,
// so a hop is all-or-nothing.
func (d *Distributed) addConn(id AppID, ports []topology.LinkID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return fmt.Errorf("%w: %d", ErrShardDead, d.id)
	}
	for i, l := range ports {
		ps := d.ports[l]
		if ps == nil {
			ps = &portState{appConns: map[AppID]int{}}
			d.ports[l] = ps
		}
		ps.appConns[id]++
		if err := d.enforcePortLocked(l); err != nil {
			d.rollbackAddLocked(id, ports[:i+1])
			return err
		}
	}
	return nil
}

// rollbackAddLocked undoes addConn's increments on the given ports,
// re-enforcing (or deconfiguring) each best-effort.
func (d *Distributed) rollbackAddLocked(id AppID, ports []topology.LinkID) {
	for _, l := range ports {
		ps := d.ports[l]
		if ps == nil {
			continue
		}
		ps.appConns[id]--
		if ps.appConns[id] <= 0 {
			delete(ps.appConns, id)
		}
		if len(ps.appConns) == 0 {
			delete(d.ports, l)
			deconfigure(d.enforcer, l)
			continue
		}
		_ = d.enforcePortLocked(l)
	}
}

// removeConn drops a connection from the shard's ports and re-enforces.
// On an enforcement failure it re-applies the ports already removed, so
// a hop is all-or-nothing.
func (d *Distributed) removeConn(id AppID, ports []topology.LinkID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return fmt.Errorf("%w: %d", ErrShardDead, d.id)
	}
	for i, l := range ports {
		ps := d.ports[l]
		if ps == nil {
			continue
		}
		ps.appConns[id]--
		if ps.appConns[id] <= 0 {
			delete(ps.appConns, id)
		}
		if len(ps.appConns) == 0 {
			delete(d.ports, l)
			deconfigure(d.enforcer, l)
			continue
		}
		if err := d.enforcePortLocked(l); err != nil {
			// Re-apply the decrements made so far (including this port's).
			for _, r := range ports[:i+1] {
				ps := d.ports[r]
				if ps == nil {
					ps = &portState{appConns: map[AppID]int{}}
					d.ports[r] = ps
				}
				ps.appConns[id]++
				_ = d.enforcePortLocked(r)
			}
			return err
		}
	}
	return nil
}

// enforcePortLocked mirrors the centralized per-port computation but uses
// the offline hierarchy and PL assignments. Full configurations are
// memoized per (app set, queue count) in the shard's solution cache.
func (d *Distributed) enforcePortLocked(port topology.LinkID) error {
	ps := d.ports[port]
	if ps == nil || len(ps.appConns) == 0 {
		return nil
	}
	ids := make([]AppID, 0, len(ps.appConns))
	for id := range ps.appConns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	queues := d.topo.QueuesAt(port)
	if queues < 1 {
		queues = 1
	}
	key := appendVarint(appendAppSetKey(make([]byte, 0, len(ids)*3+2), ids), uint64(queues))
	cfg, err := d.sols.get(d.gen, key, func() (netsim.PortConfig, error) {
		return d.buildPortConfig(ids, port, queues)
	})
	if err != nil {
		return err
	}
	if err := d.enforcer.Configure(port, cfg); err != nil {
		return err
	}
	d.tel.ports.Inc()
	return nil
}

// buildPortConfig solves Eq. 2 over the port's (sorted) app set and maps
// the present PLs to the port's queues via the offline hierarchy.
func (d *Distributed) buildPortConfig(ids []AppID, port topology.LinkID, queues int) (netsim.PortConfig, error) {
	objs := make([]solver.Objective, len(ids))
	for i, id := range ids {
		objs[i] = solver.NewMonotonePoly(d.appCoef[id])
	}
	weights, err := solver.Minimize(objs, solver.Options{Total: d.csaba, MinShare: d.minShare})
	if err != nil {
		return netsim.PortConfig{}, fmt.Errorf("controller: shard %d Eq.2 on port %d: %w", d.id, port, err)
	}

	present := map[int]bool{}
	for _, id := range ids {
		present[d.appPL[id]] = true
	}
	presentPLs := make([]int, 0, len(present))
	for pl := range present {
		presentPLs = append(presentPLs, pl)
	}
	slices.Sort(presentPLs)
	clusters, err := d.db.Hierarchy().MapToQueues(presentPLs, queues)
	if err != nil {
		return netsim.PortConfig{}, fmt.Errorf("controller: shard %d PL→queue on port %d: %w", d.id, port, err)
	}
	plToQueue := map[int]int{}
	for q, cl := range clusters {
		for _, pl := range cl.Members {
			plToQueue[pl] = q
		}
	}
	qWeights := make([]float64, len(clusters))
	for i, id := range ids {
		if q, ok := plToQueue[d.appPL[id]]; ok {
			qWeights[q] += weights[i]
		}
	}
	return netsim.PortConfig{
		Weights:      qWeights,
		PLQueue:      plToQueue,
		DefaultQueue: defaultQueue(qWeights),
	}, nil
}
