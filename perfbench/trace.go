package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"saba/internal/controller"
	"saba/internal/netsim"
	"saba/internal/sabalib"
	"saba/internal/topology"
)

// maxSpans bounds the spans one run keeps in memory for the span file.
// The per-layer sums are kept for every span regardless; only the
// written record is truncated (and the truncation counted).
const maxSpans = 200_000

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Parent is the id of the span that caused
// this one (0 for roots); spans of one control operation share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBuf is a single-writer span log with per-name sums. Every
// allocator clone owns one, so concurrent shard workers never contend.
type spanBuf struct {
	spans []span
	sum   map[string]*layerSum
}

// layerSum accumulates one span name.
type layerSum struct {
	ns    int64
	calls int64
	items int64 // work units handed to the layer (flows, ports)
}

func (b *spanBuf) add(tr *tracer, s span, items int64) {
	ls := b.sum[s.Name]
	if ls == nil {
		ls = &layerSum{}
		b.sum[s.Name] = ls
	}
	ls.ns += s.End - s.Start
	ls.calls++
	ls.items += items
	if tr.kept.Add(1) <= maxSpans {
		b.spans = append(b.spans, s)
	} else {
		tr.dropped.Add(1)
	}
}

// tracer records spans at the layer boundaries the benchmark wraps. It
// keeps everything in memory and writes the span file when the run ends.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64
	root    atomic.Int64 // span id of the enclosing pass or policy run
	// on gates the server-side control wrappers, which stay installed for
	// a whole traced run: set-up and untraced phases pass straight
	// through (see setTracing).
	on atomic.Bool

	allocFull     atomic.Int64 // Allocate calls (full recomputes)
	allocDeclined atomic.Int64 // AllocateScoped calls that declined
	allocSwaps    atomic.Int64 // recomputes forced by installing a wrapper

	// The union of the intervals in which at least one allocator (or
	// clone) was running: engine time is run time outside it, so clones
	// working in parallel are not subtracted twice.
	actMu      sync.Mutex
	active     int
	activeFrom int64
	allocUnion int64 // ns

	mu   sync.Mutex
	bufs []*spanBuf
	main *spanBuf // written under mu by the non-allocator wrappers

	// In-flight control calls, so a server-side span can name the client
	// operation it serves (see clientSpanFor).
	inflight []inflightCall
	handlers []inflightCall
}

type inflightCall struct {
	method string
	span   int64
	op     int64
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.main = tr.newBuf()
	return tr
}

func (tr *tracer) newBuf() *spanBuf {
	b := &spanBuf{sum: map[string]*layerSum{}}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, b)
	tr.mu.Unlock()
	return b
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// begin opens a span id; the caller records it with end.
func (tr *tracer) begin() (id, start int64) { return tr.nextID.Add(1), tr.now() }

// record files a finished span into the shared buffer.
func (tr *tracer) record(s span, items int64) {
	tr.mu.Lock()
	tr.main.add(tr, s, items)
	tr.mu.Unlock()
}

// run times fn as a root span named name; spans opened inside name it as
// their parent.
func (tr *tracer) run(name string, fn func() error) error {
	id, start := tr.begin()
	prev := tr.root.Swap(id)
	err := fn()
	tr.root.Store(prev)
	tr.record(span{ID: id, Parent: prev, Name: name, Start: start, End: tr.now()}, 0)
	return err
}

// totals merges the per-name sums of every buffer.
func (tr *tracer) totals() map[string]layerSum {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]layerSum{}
	for _, b := range tr.bufs {
		for name, ls := range b.sum {
			t := out[name]
			t.ns += ls.ns
			t.calls += ls.calls
			t.items += ls.items
			out[name] = t
		}
	}
	return out
}

// write dumps every kept span as one JSON document.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	var all []span
	for _, b := range tr.bufs {
		all = append(all, b.spans...)
	}
	tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{tr.dropped.Load(), all}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// beginClient notes a client-side control call in flight.
func (tr *tracer) beginClient(method string, id, op int64) {
	tr.mu.Lock()
	tr.inflight = append(tr.inflight, inflightCall{method: method, span: id, op: op})
	tr.mu.Unlock()
}

func (tr *tracer) endClient(id int64) {
	tr.mu.Lock()
	tr.inflight = removeCall(tr.inflight, id)
	tr.mu.Unlock()
}

// clientSpanFor names the client call a server-side handler serves: the
// earliest-started in-flight client call of the same method. At most one
// call per connection is outstanding, so the match is exact unless two
// connections carry the same method at once; the per-layer sums do not
// depend on the match.
func (tr *tracer) clientSpanFor(method string) (parent, op int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, c := range tr.inflight {
		if c.method == method {
			return c.span, c.op
		}
	}
	return 0, 0
}

func removeCall(calls []inflightCall, id int64) []inflightCall {
	for i, c := range calls {
		if c.span == id {
			return append(calls[:i], calls[i+1:]...)
		}
	}
	return calls
}

// --- netsim.Allocator ----------------------------------------------------

// spanAlloc names the allocator wrapper's spans. spanAllocSwap names the
// recompute the engine makes because the wrapper was swapped in (see
// wrapSwapped); it is kept out of the allocator sums.
const (
	spanAlloc     = "netsim.alloc"
	spanAllocSwap = "netsim.alloc.swap"
)

// tracedAlloc times every Allocate/AllocateScoped call. It owns its span
// buffer, so a shard clone (one per worker) records without locks.
type tracedAlloc struct {
	inner netsim.Allocator
	tr    *tracer
	buf   *spanBuf
	// swap marks the calls of the recompute that Engine.SetAllocator
	// forces over every active flow, which an untraced run never makes.
	swap bool
}

func wrapAlloc(tr *tracer, a netsim.Allocator) netsim.Allocator {
	return wrapped(&tracedAlloc{inner: a, tr: tr, buf: tr.newBuf()})
}

// wrapSwapped wraps the allocator of an assembled engine, which must
// install it with SetAllocator. SetAllocator marks every flow dirty, so
// the engine's next recompute covers the whole network; that recompute
// is recorded apart, as spanAllocSwap.
func wrapSwapped(tr *tracer, a netsim.Allocator) netsim.Allocator {
	return wrapped(&tracedAlloc{inner: a, tr: tr, buf: tr.newBuf(), swap: true})
}

func wrapped(t *tracedAlloc) netsim.Allocator {
	if _, ok := t.inner.(netsim.ShardableAllocator); ok {
		return &tracedShardable{t}
	}
	return t
}

func (t *tracedAlloc) Name() string { return t.inner.Name() }

func (t *tracedAlloc) Allocate(net *netsim.Network) {
	id, start := t.tr.begin()
	t.tr.allocEnter(start)
	t.inner.Allocate(net)
	end := t.tr.now()
	t.tr.allocExit(end)
	name := spanAlloc
	if t.swap {
		name, t.swap = spanAllocSwap, false
		t.tr.allocSwaps.Add(1)
	} else {
		t.tr.allocFull.Add(1)
	}
	t.buf.add(t.tr, span{ID: id, Parent: t.tr.root.Load(), Name: name, Start: start, End: end}, int64(net.NumActive()))
}

func (t *tracedAlloc) AllocateScoped(net *netsim.Network, ids []netsim.FlowID) bool {
	id, start := t.tr.begin()
	t.tr.allocEnter(start)
	ok := t.inner.AllocateScoped(net, ids)
	end := t.tr.now()
	t.tr.allocExit(end)
	name := spanAlloc
	switch {
	case t.swap:
		// A decline is followed by the Allocate that ends the swap.
		name, t.swap = spanAllocSwap, !ok
		if ok {
			t.tr.allocSwaps.Add(1)
		}
	case !ok:
		t.tr.allocDeclined.Add(1)
	}
	t.buf.add(t.tr, span{ID: id, Parent: t.tr.root.Load(), Name: name, Start: start, End: end}, int64(len(ids)))
	return ok
}

// allocEnter and allocExit bracket one allocator call for allocUnion.
func (tr *tracer) allocEnter(at int64) {
	tr.actMu.Lock()
	if tr.active == 0 {
		tr.activeFrom = at
	}
	tr.active++
	tr.actMu.Unlock()
}

func (tr *tracer) allocExit(at int64) {
	tr.actMu.Lock()
	if tr.active--; tr.active == 0 {
		tr.allocUnion += at - tr.activeFrom
	}
	tr.actMu.Unlock()
}

// allocUnionNs is the time at least one allocator call was running.
func (tr *tracer) allocUnionNs() int64 {
	tr.actMu.Lock()
	defer tr.actMu.Unlock()
	return tr.allocUnion
}

// tracedShardable forwards ShardClone, which the sharded engine
// type-asserts: without it the engine would silently fall back to the
// serial union recompute. Each clone gets its own span buffer.
type tracedShardable struct{ *tracedAlloc }

func (t *tracedShardable) ShardClone() netsim.Allocator {
	c := t.inner.(netsim.ShardableAllocator).ShardClone()
	if c == nil {
		return nil // the engine reads nil as "not shardable now"
	}
	return &tracedAlloc{inner: c, tr: t.tr, buf: t.tr.newBuf()}
}

// --- controller.Enforcer ---------------------------------------------------

const spanApply = "controller.enforce.apply"

// tracedEnforcer times Configure and forwards Deconfigure, which the
// controller type-asserts to clear emptied ports.
type tracedEnforcer struct {
	inner *netsim.WFQ
	tr    *tracer
}

func (e *tracedEnforcer) Configure(port topology.LinkID, cfg netsim.PortConfig) error {
	if !e.tr.on.Load() {
		return e.inner.Configure(port, cfg)
	}
	id, start := e.tr.begin()
	err := e.inner.Configure(port, cfg)
	parent, op := e.tr.handlerInFlight()
	e.tr.record(span{ID: id, Parent: parent, Op: op, Name: spanApply, Start: start, End: e.tr.now()}, 1)
	return err
}

func (e *tracedEnforcer) Deconfigure(port topology.LinkID) {
	if !e.tr.on.Load() {
		e.inner.Deconfigure(port)
		return
	}
	id, start := e.tr.begin()
	e.inner.Deconfigure(port)
	parent, op := e.tr.handlerInFlight()
	e.tr.record(span{ID: id, Parent: parent, Op: op, Name: spanApply, Start: start, End: e.tr.now()}, 1)
}

// handlerInFlight names the handler an enforcement belongs to: the
// earliest-started handler still running, which is the one holding the
// controller's lock when handlers queue on it.
func (tr *tracer) handlerInFlight() (parent, op int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.handlers) == 0 {
		return 0, 0
	}
	return tr.handlers[0].span, tr.handlers[0].op
}

// --- controller.API (server side) ----------------------------------------

// tracedAPI times each handler the RPC service dispatches into the
// controller. It forwards the optional TenantRegistrar and
// SlowdownObserver extensions that controller.Serve type-asserts.
type tracedAPI struct {
	inner *controller.Centralized
	tr    *tracer
}

var (
	_ controller.API              = (*tracedAPI)(nil)
	_ controller.TenantRegistrar  = (*tracedAPI)(nil)
	_ controller.SlowdownObserver = (*tracedAPI)(nil)
)

func (a *tracedAPI) handle(method string, fn func() error) error {
	if !a.tr.on.Load() {
		return fn()
	}
	parent, op := a.tr.clientSpanFor(method)
	id, start := a.tr.begin()
	a.tr.mu.Lock()
	a.tr.handlers = append(a.tr.handlers, inflightCall{method: method, span: id, op: op})
	a.tr.mu.Unlock()
	err := fn()
	a.tr.mu.Lock()
	a.tr.handlers = removeCall(a.tr.handlers, id)
	a.tr.main.add(a.tr, span{ID: id, Parent: parent, Op: op, Name: "controller.handle." + method, Start: start, End: a.tr.now()}, 0)
	a.tr.mu.Unlock()
	return err
}

func (a *tracedAPI) Register(name string) (id controller.AppID, pl int, err error) {
	err = a.handle(opRegister, func() error { id, pl, err = a.inner.Register(name); return err })
	return id, pl, err
}

func (a *tracedAPI) Deregister(id controller.AppID) error {
	return a.handle(opDeregister, func() error { return a.inner.Deregister(id) })
}

func (a *tracedAPI) ConnCreate(id controller.AppID, src, dst topology.NodeID) (cid controller.ConnID, err error) {
	err = a.handle(opConnCreate, func() error { cid, err = a.inner.ConnCreate(id, src, dst); return err })
	return cid, err
}

func (a *tracedAPI) ConnDestroy(cid controller.ConnID) error {
	return a.handle(opConnDestroy, func() error { return a.inner.ConnDestroy(cid) })
}

func (a *tracedAPI) PL(id controller.AppID) (pl int, err error) {
	err = a.handle("pl", func() error { pl, err = a.inner.PL(id); return err })
	return pl, err
}

func (a *tracedAPI) RegisterTenant(name string, min float64) (tid controller.TenantID, err error) {
	err = a.handle("tenant_register", func() error { tid, err = a.inner.RegisterTenant(name, min); return err })
	return tid, err
}

func (a *tracedAPI) RegisterIn(tenant controller.TenantID, name string) (id controller.AppID, pl int, err error) {
	err = a.handle("register_in", func() error { id, pl, err = a.inner.RegisterIn(tenant, name); return err })
	return id, pl, err
}

func (a *tracedAPI) ObserveSlowdown(id controller.AppID, bw, observed float64) (changed bool, err error) {
	err = a.handle("observe_slowdown", func() error { changed, err = a.inner.ObserveSlowdown(id, bw, observed); return err })
	return changed, err
}

// --- sabalib.Transport (client side) --------------------------------------

// tracedTransport times each call the library makes into the RPC
// transport. It forwards sabalib.TenantTransport, which the library
// type-asserts. The op field names the benchmark operation in flight on
// this connection; one goroutine drives each transport.
type tracedTransport struct {
	inner *sabalib.RPCTransport
	tr    *tracer
	op    int64
	lib   int64 // span id of the library call in progress
}

var (
	_ sabalib.Transport       = (*tracedTransport)(nil)
	_ sabalib.TenantTransport = (*tracedTransport)(nil)
)

func (t *tracedTransport) call(method string, fn func() error) error {
	id, start := t.tr.begin()
	t.tr.beginClient(method, id, t.op)
	err := fn()
	t.tr.endClient(id)
	t.tr.record(span{ID: id, Parent: t.lib, Op: t.op, Name: "rpc.call", Start: start, End: t.tr.now()}, 0)
	return err
}

func (t *tracedTransport) Register(name string) (id controller.AppID, pl int, err error) {
	err = t.call(opRegister, func() error { id, pl, err = t.inner.Register(name); return err })
	return id, pl, err
}

func (t *tracedTransport) Deregister(id controller.AppID) error {
	return t.call(opDeregister, func() error { return t.inner.Deregister(id) })
}

func (t *tracedTransport) ConnCreate(id controller.AppID, src, dst topology.NodeID) (cid controller.ConnID, err error) {
	err = t.call(opConnCreate, func() error { cid, err = t.inner.ConnCreate(id, src, dst); return err })
	return cid, err
}

func (t *tracedTransport) ConnDestroy(cid controller.ConnID) error {
	return t.call(opConnDestroy, func() error { return t.inner.ConnDestroy(cid) })
}

func (t *tracedTransport) PL(id controller.AppID) (pl int, err error) {
	err = t.call("pl", func() error { pl, err = t.inner.PL(id); return err })
	return pl, err
}

func (t *tracedTransport) ObserveSlowdown(id controller.AppID, bw, observed float64) (changed bool, err error) {
	err = t.call("observe_slowdown", func() error { changed, err = t.inner.ObserveSlowdown(id, bw, observed); return err })
	return changed, err
}

func (t *tracedTransport) RegisterTenant(name string, min float64) (tid controller.TenantID, err error) {
	err = t.call("tenant_register", func() error { tid, err = t.inner.RegisterTenant(name, min); return err })
	return tid, err
}

func (t *tracedTransport) RegisterIn(tenant controller.TenantID, name string) (id controller.AppID, pl int, err error) {
	err = t.call("register_in", func() error { id, pl, err = t.inner.RegisterIn(tenant, name); return err })
	return id, pl, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// libCall times one library call of operation op as the root span of
// that operation's tree.
func (t *tracedTransport) libCall(opID int64, kind string, fn func() error) error {
	id, start := t.tr.begin()
	t.op, t.lib = opID, id
	err := fn()
	t.tr.record(span{ID: id, Op: opID, Name: "sabalib." + kind, Start: start, End: t.tr.now()}, 0)
	t.op, t.lib = 0, 0
	return err
}

func spanFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
