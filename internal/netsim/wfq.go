package netsim

import (
	"fmt"

	"saba/internal/telemetry"
	"saba/internal/topology"
)

// PortConfig is the queue configuration of one switch output port (one
// directed link): queue weights plus the PL→queue mapping the controller
// installed (paper §5.2-§5.3). Weights need not sum to 1; they are
// normalized by the scheduler. Flows whose PL is missing from PLQueue (or
// negative) fall into DefaultQueue.
type PortConfig struct {
	Weights      []float64   // per-queue WFQ weight
	PLQueue      map[int]int // priority level → queue index
	DefaultQueue int         // queue for unmapped flows

	specs []ClassSpec // cached Filler class table, built on Configure
	plq   []int       // dense PL→queue lookup (-1 = default), built on Configure
}

// validate checks internal consistency.
func (p *PortConfig) validate() error {
	if len(p.Weights) == 0 {
		return fmt.Errorf("netsim: port config has no queues")
	}
	for q, w := range p.Weights {
		if w < 0 {
			return fmt.Errorf("netsim: negative weight %g on queue %d", w, q)
		}
	}
	if p.DefaultQueue < 0 || p.DefaultQueue >= len(p.Weights) {
		return fmt.Errorf("netsim: default queue %d out of range", p.DefaultQueue)
	}
	for pl, q := range p.PLQueue {
		if q < 0 || q >= len(p.Weights) {
			return fmt.Errorf("netsim: PL %d maps to queue %d out of range", pl, q)
		}
	}
	return nil
}

// WFQ enforces Saba's allocations: each configured port splits bandwidth
// among its queues in proportion to their weights (work-conserving: a
// queue with no backlogged flows yields its share), and flows within a
// queue share equally. Ports without a config behave as per-flow max-min,
// which is how an unconfigured InfiniBand port with a single active VL
// behaves.
type WFQ struct {
	filler *Filler
	ports  []*PortConfig // dense, indexed by LinkID; nil = unconfigured

	portsConfigured   *telemetry.Counter // netsim.ports_configured
	portsDeconfigured *telemetry.Counter // netsim.ports_deconfigured
}

// NewWFQ creates the WFQ allocator with an initially empty configuration.
func NewWFQ(net *Network) *WFQ {
	w := &WFQ{
		filler: newClassedFiller(net),
		ports:  make([]*PortConfig, len(net.Topology().Links())),
	}
	w.SetTelemetry(telemetry.Default)
	return w
}

// SetTelemetry rebinds the allocator's instruments to reg.
func (w *WFQ) SetTelemetry(reg *telemetry.Registry) {
	w.portsConfigured = reg.Counter("netsim.ports_configured")
	w.portsDeconfigured = reg.Counter("netsim.ports_deconfigured")
}

// Name implements Allocator.
func (*WFQ) Name() string { return "saba-wfq" }

// Configure installs (or replaces) the queue configuration of a port.
// This is the switch-configuration operation the controller performs.
func (w *WFQ) Configure(port topology.LinkID, cfg PortConfig) error {
	if int(port) < 0 || int(port) >= len(w.ports) {
		return fmt.Errorf("netsim: unknown port %d", port)
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	// Deep-copy to decouple from the caller.
	cp := PortConfig{
		Weights:      append([]float64(nil), cfg.Weights...),
		PLQueue:      make(map[int]int, len(cfg.PLQueue)),
		DefaultQueue: cfg.DefaultQueue,
	}
	maxPL := -1
	for pl, q := range cfg.PLQueue {
		cp.PLQueue[pl] = q
		if pl > maxPL {
			maxPL = pl
		}
	}
	cp.plq = make([]int, maxPL+1)
	for i := range cp.plq {
		cp.plq[i] = -1
	}
	for pl, q := range cp.PLQueue {
		if pl >= 0 {
			cp.plq[pl] = q
		}
	}
	cp.specs = make([]ClassSpec, len(cp.Weights))
	for q, wt := range cp.Weights {
		cp.specs[q] = ClassSpec{Weight: wt, PerFlow: false}
	}
	w.ports[port] = &cp
	w.portsConfigured.Inc()
	return nil
}

// Deconfigure removes a port's configuration, reverting it to per-flow
// fairness.
func (w *WFQ) Deconfigure(port topology.LinkID) {
	if int(port) >= 0 && int(port) < len(w.ports) {
		if w.ports[port] != nil {
			w.portsDeconfigured.Inc()
		}
		w.ports[port] = nil
	}
}

// Config returns the current configuration of a port, or nil.
func (w *WFQ) Config(port topology.LinkID) *PortConfig {
	if int(port) < 0 || int(port) >= len(w.ports) {
		return nil
	}
	return w.ports[port]
}

// Allocate implements Allocator.
func (w *WFQ) Allocate(net *Network) {
	w.AllocateScoped(net, net.ActiveIDs())
}

// AllocateScoped implements Allocator.
//
// The generalized water-filling pass freezes whole (port, queue) groups
// at their minimum entitlement; in a multi-hop hierarchy a queue frozen
// early can be left below capacity when another queue's flows turn out
// to be bottlenecked elsewhere. True WFQ is work-conserving, so the
// allocation runs top-up passes (Filler.topUp): flows with slack on
// every link of their path re-enter a supplemental fill over the
// residual capacities until no flow can be raised. Both the fill and
// the top-ups read only links crossed by
// ids, and a dirty component owns its links outright, so scoping
// reproduces the global result.
func (w *WFQ) AllocateScoped(net *Network, ids []FlowID) bool {
	cls := wfqClassifier{w}
	w.filler.ResetFor(net, ids)
	w.filler.Run(net, ids, cls)
	w.filler.topUp(net, ids, cls)
	return true
}

// ShardClone implements ShardableAllocator. Clones share the parent's
// port-configuration table: the slice is sized to the link count at
// construction and never grows, and Configure/Deconfigure replace
// elements in place from serial engine phases only, so clones observe
// reconfigurations through the shared backing array. The filler is a
// scoped view of the parent's (shared per-link arrays, owned run
// scratch; see cloneScoped); the configuration counters are shared
// (Configure only ever runs on the parent).
func (w *WFQ) ShardClone() Allocator {
	return &WFQ{
		filler:            w.filler.cloneScoped(),
		ports:             w.ports,
		portsConfigured:   w.portsConfigured,
		portsDeconfigured: w.portsDeconfigured,
	}
}

// wfqClassifier adapts the port configurations to the Filler. Configured
// ports expose one fixed-weight class per queue; unconfigured ports
// expose the flat per-flow class.
type wfqClassifier struct{ w *WFQ }

func (c wfqClassifier) LinkClasses(l topology.LinkID) []ClassSpec {
	cfg := c.w.ports[l]
	if cfg == nil {
		return flatClasses
	}
	return cfg.specs
}

func (c wfqClassifier) FlowClass(f *Flow, l topology.LinkID) int {
	cfg := c.w.ports[l]
	if cfg == nil {
		return 0
	}
	if f.PL >= 0 && f.PL < len(cfg.plq) {
		if q := cfg.plq[f.PL]; q >= 0 {
			return q
		}
	}
	return cfg.DefaultQueue
}
