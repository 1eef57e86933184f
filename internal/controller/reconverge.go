package controller

import (
	"fmt"
	"slices"
	"time"

	"saba/internal/topology"
)

// Controller reconvergence after data-plane topology change. When links
// or switches fail (or recover), connection paths detected at ConnCreate
// time are stale: flows were rerouted or stalled by the simulator, so the
// per-port application membership the controller enforces from no longer
// matches the fabric. TopologyChanged rebuilds that membership by
// re-detecting every connection's path against the current liveness state
// and re-enforcing the result.
//
// The pass is bounded by Config.ReconvergeDeadline: a pass that errors or
// overruns the deadline degrades every configured port to baseline
// fair-share — the port-level analogue of PR 1's control-plane graceful
// degradation — rather than leaving half-updated weights live. The next
// successful pass recovers full Saba enforcement.

// TopologyChanged reconverges the centralized controller onto the current
// topology liveness state: it invalidates the solution cache (via the
// epoch sync), re-detects every connection's path in ascending ConnID
// order, deconfigures ports no longer crossed by any connection, and
// re-enforces the rest.
func (c *Centralized) TopologyChanged() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	c.tel.reconverges.Inc()
	c.syncTopoEpochLocked()
	if c.degraded {
		// Recovery from a degraded pass must re-push every port even if
		// memberships match the memos: the enforcer state was cleared.
		c.solEpoch++
	}
	err := c.reroutePortsLocked()
	if err == nil {
		err = c.enforceAllLocked()
	}
	if d := c.cfg.ReconvergeDeadline; d > 0 && (err != nil || time.Since(start) > d) {
		c.degradeAllLocked()
		return nil
	}
	if err != nil {
		return fmt.Errorf("controller: reconvergence: %w", err)
	}
	c.degraded = false
	return nil
}

// Degraded reports whether the last reconvergence pass dropped the fabric
// to baseline fair-share (deadline overrun or enforcement failure).
func (c *Centralized) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// reroutePortsLocked rebuilds the port membership map from re-detected
// connection paths. Connections whose endpoints are cut off keep a nil
// path (occupying no ports) until a later reconvergence finds one —
// mirroring the simulator, which stalls such flows rather than dropping
// them. Ports emptied by the rebuild are deconfigured.
func (c *Centralized) reroutePortsLocked() error {
	old := c.ports
	c.ports = make(map[topology.LinkID]*portState, len(old))
	cids := make([]ConnID, 0, len(c.conns))
	for cid := range c.conns {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	for _, cid := range cids {
		conn := c.conns[cid]
		path, err := c.cfg.Topology.Route(conn.src, conn.dst)
		if err != nil {
			conn.path = nil
			c.conns[cid] = conn
			continue
		}
		conn.path = path
		c.conns[cid] = conn
		c.addPathLocked(conn.app, path)
	}
	abandoned := make([]topology.LinkID, 0, len(old))
	for l := range old {
		if c.ports[l] == nil {
			abandoned = append(abandoned, l)
		}
	}
	slices.Sort(abandoned)
	for _, l := range abandoned {
		deconfigure(c.cfg.Enforcer, l)
	}
	return nil
}

// degradeAllLocked reverts every configured port to baseline fair-share
// while keeping the membership state, so the next successful pass can
// restore Saba weights. The epoch bump defeats the per-port enforcement
// memos, which would otherwise skip the restoring push.
func (c *Centralized) degradeAllLocked() {
	ports := make([]topology.LinkID, 0, len(c.ports))
	for l := range c.ports {
		ports = append(ports, l)
	}
	slices.Sort(ports)
	for _, l := range ports {
		deconfigure(c.cfg.Enforcer, l)
	}
	c.solEpoch++
	c.degraded = true
	c.tel.reconvDegr.Inc()
}

// TopologyChanged reconverges the distributed mesh: every live shard
// drops its port state, and the mesh replays every connection (in
// ascending ConnID order) over re-detected paths, re-enforcing shard by
// shard. Connections whose endpoints are cut off are skipped until a
// later pass. The offline mapping database is untouched (§5.4: PL
// assignment is computed offline and does not react to runtime events).
func (m *Mesh) TopologyChanged() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tel.reconverges.Inc()
	for _, sh := range m.shards {
		if !sh.isDead() {
			sh.resetPorts()
		}
	}
	cids := make([]ConnID, 0, len(m.conns))
	for cid := range m.conns {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	var firstErr error
	for _, cid := range cids {
		conn := m.conns[cid]
		path, err := m.topo.Route(conn.src, conn.dst)
		if err != nil {
			conn.path = nil
			m.conns[cid] = conn
			continue
		}
		conn.path = path
		m.conns[cid] = conn
		for _, hop := range shardHops(m.ownerOf, m.topo, path) {
			if err := hop.shard.addConn(conn.app, hop.ports); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("controller: reconvergence replay of conn %d: %w", cid, err)
			}
		}
	}
	return firstErr
}

// resetPorts drops the shard's port state ahead of a reconvergence
// replay, deconfiguring every previously enforced port.
func (d *Distributed) resetPorts() {
	d.mu.Lock()
	defer d.mu.Unlock()
	ports := make([]topology.LinkID, 0, len(d.ports))
	for l := range d.ports {
		ports = append(ports, l)
	}
	slices.Sort(ports)
	for _, l := range ports {
		deconfigure(d.enforcer, l)
	}
	d.ports = map[topology.LinkID]*portState{}
	d.gen++ // stale (app set, queues) solutions may reflect old capacity context
}
