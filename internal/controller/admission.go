// Admission control and load shedding: the controller's overload
// protection. Three mechanisms compose into an explicit degradation
// ladder instead of an unbounded backlog:
//
//  1. Token buckets (internal/ratelimit) bound the admission-path rate:
//     one ingress bucket bounds how many synchronous Eq. 2 enforcement
//     batches the controller performs per second, and a per-tenant
//     bucket bounds each tenant's connection-create rate so one noisy
//     tenant cannot starve the rest. Exhausted budgets produce a typed
//     RejectedError with a retry-after hint — a fast "no", never a
//     silent queue.
//  2. A bounded pending-enforcement queue defers port reconfiguration
//     when the ingress budget is exhausted: the connection is admitted
//     and its ports keep running on their last (cached) plans until
//     Flush batches one solve over everything pending. Entries carry
//     the enqueue time; Flush sheds entries older than QueueDeadline to
//     baseline fair share instead of solving for them.
//  3. The degradation ladder is driven by queue occupancy: below
//     CachedFrac the controller runs full synchronous Eq. 2 (rung 0);
//     between CachedFrac and FairFrac new work is deferred onto cached
//     plans (rung 1); past FairFrac arriving connections drop straight
//     to baseline per-flow fair share (rung 2) — the same degraded
//     stance the reconvergence watchdog uses — so the queue cannot grow
//     without bound even before the hard QueueLimit.
//
// The zero AdmissionConfig disables all of it, preserving the exact
// pre-admission behavior for every existing path.
package controller

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"saba/internal/ratelimit"
	"saba/internal/topology"
)

// AdmissionConfig parameterizes overload protection.
type AdmissionConfig struct {
	// Enabled turns admission control on. False (the zero value) keeps
	// the controller's original always-admit, always-synchronous behavior.
	Enabled bool
	// IngressRate/IngressBurst budget the synchronous enforcement path in
	// operations per second. 0 selects 200/50.
	IngressRate  float64
	IngressBurst float64
	// TenantRate/TenantBurst budget each tenant's connection creates.
	// 0 selects 100/25.
	TenantRate  float64
	TenantBurst float64
	// QueueLimit bounds the pending-enforcement queue. 0 selects 1024.
	QueueLimit int
	// QueueDeadline is how long a deferred enforcement may wait before
	// Flush sheds it to baseline fair share. 0 selects 250ms.
	QueueDeadline time.Duration
	// CachedFrac and FairFrac are the ladder thresholds as fractions of
	// QueueLimit occupancy: full Eq. 2 below CachedFrac, cached plans
	// below FairFrac, fair share above. 0 selects 0.5 and 0.9.
	CachedFrac float64
	FairFrac   float64
	// RetryAfter is the hint attached to rejections. 0 selects 50ms.
	RetryAfter time.Duration
	// Clock drives bucket refill, queue deadlines, and the enforcement
	// latency histogram. nil selects the wall clock; experiments inject
	// virtual time.
	Clock ratelimit.Clock
}

func (a *AdmissionConfig) fill() error {
	if !a.Enabled {
		return nil
	}
	if a.IngressRate == 0 {
		a.IngressRate = 200
	}
	if a.IngressBurst == 0 {
		a.IngressBurst = 50
	}
	if a.TenantRate == 0 {
		a.TenantRate = 100
	}
	if a.TenantBurst == 0 {
		a.TenantBurst = 25
	}
	if a.IngressRate < 0 || a.IngressBurst < 0 || a.TenantRate < 0 || a.TenantBurst < 0 {
		return fmt.Errorf("controller: negative admission rate/burst")
	}
	if a.QueueLimit == 0 {
		a.QueueLimit = 1024
	}
	if a.QueueLimit < 1 {
		return fmt.Errorf("controller: admission QueueLimit %d < 1", a.QueueLimit)
	}
	if a.QueueDeadline == 0 {
		a.QueueDeadline = 250 * time.Millisecond
	}
	if a.CachedFrac == 0 {
		a.CachedFrac = 0.5
	}
	if a.FairFrac == 0 {
		a.FairFrac = 0.9
	}
	if a.CachedFrac < 0 || a.CachedFrac > a.FairFrac || a.FairFrac > 1 {
		return fmt.Errorf("controller: ladder thresholds %g/%g out of order", a.CachedFrac, a.FairFrac)
	}
	if a.RetryAfter == 0 {
		a.RetryAfter = 50 * time.Millisecond
	}
	if a.Clock == nil {
		a.Clock = ratelimit.WallClock{}
	}
	return nil
}

// rejectedMarker is the stable wire form of a RejectedError; AsRejected
// parses it back out of a flattened RPC error string.
const rejectedMarker = "admission rejected reason="

// RejectedError is the typed fast-fail of admission control: the
// request was not executed and will not be — the caller should back off
// for RetryAfter before trying again (or route around the controller).
type RejectedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("controller: %s%s retry_after_ms=%d",
		rejectedMarker, e.Reason, e.RetryAfter.Milliseconds())
}

// AsRejected extracts a RejectedError from err, looking through both
// wrapped local errors and errors flattened to strings by the RPC layer
// (a RemoteError only carries the message).
func AsRejected(err error) (*RejectedError, bool) {
	if err == nil {
		return nil, false
	}
	var re *RejectedError
	if errors.As(err, &re) {
		return re, true
	}
	s := err.Error()
	i := strings.Index(s, rejectedMarker)
	if i < 0 {
		return nil, false
	}
	var reason string
	var ms int64
	if _, serr := fmt.Sscanf(s[i+len(rejectedMarker):], "%s retry_after_ms=%d", &reason, &ms); serr != nil {
		return nil, false
	}
	return &RejectedError{Reason: reason, RetryAfter: time.Duration(ms) * time.Millisecond}, true
}

// IsInfeasible reports whether err is (or wraps, locally or across the
// RPC string flattening) the guarantee-infeasibility rejection.
func IsInfeasible(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrInfeasible) || strings.Contains(err.Error(), ErrInfeasible.Error())
}

// Degradation ladder rungs, as reported by the ladder_level gauge.
const (
	LadderFull   = 0 // synchronous full Eq. 2
	LadderCached = 1 // admit on cached plans, defer the solve
	LadderFair   = 2 // baseline per-flow fair share
)

// pendingEntry is one deferred enforcement: the unique ports of an
// admitted connection's path, stamped with the admission-clock enqueue
// time Flush checks against QueueDeadline.
type pendingEntry struct {
	ports []topology.LinkID
	enq   time.Time
}

// admissionState is the runtime half of AdmissionConfig.
type admissionState struct {
	cfg     *AdmissionConfig
	ingress *ratelimit.TokenBucket
	tenants map[TenantID]*ratelimit.TokenBucket
	pending []pendingEntry
}

// newAdmissionState builds the bucket set; nil when admission is off.
// cfg must already be filled (validated), so bucket construction cannot
// fail; a zero rate still yields a never-refilling bucket via a tiny
// positive epsilon, meaning "reject everything" as configured.
func newAdmissionState(cfg *AdmissionConfig, tel ctrlMetrics) *admissionState {
	if !cfg.Enabled {
		return nil
	}
	mk := func(rate, burst float64) *ratelimit.TokenBucket {
		if rate <= 0 {
			rate = 1e-12
		}
		if burst <= 0 {
			burst = 1e-12
		}
		b, err := ratelimit.New(rate, burst, cfg.Clock)
		if err != nil {
			panic(fmt.Sprintf("controller: admission bucket: %v", err)) // unreachable: fill validated
		}
		return b
	}
	_ = tel
	return &admissionState{
		cfg:     cfg,
		ingress: mk(cfg.IngressRate, cfg.IngressBurst),
		tenants: map[TenantID]*ratelimit.TokenBucket{},
	}
}

// tenantBucket lazily creates the per-tenant conn-create budget.
func (a *admissionState) tenantBucket(t TenantID) *ratelimit.TokenBucket {
	b := a.tenants[t]
	if b == nil {
		rate, burst := a.cfg.TenantRate, a.cfg.TenantBurst
		if rate <= 0 {
			rate = 1e-12
		}
		if burst <= 0 {
			burst = 1e-12
		}
		b, _ = ratelimit.New(rate, burst, a.cfg.Clock)
		a.tenants[t] = b
	}
	return b
}

// rejectLocked counts and constructs a typed rejection.
func (c *Centralized) rejectLocked(reason string) error {
	c.tel.admitRejects.Inc()
	return &RejectedError{Reason: reason, RetryAfter: c.cfg.Admission.RetryAfter}
}

// admitTenantLocked gates tenant registration through the ingress
// budget (a registration storm must not stall the enforcement path).
func (c *Centralized) admitTenantLocked(min float64) error {
	_ = min
	a := c.admission
	if a == nil {
		return nil
	}
	if !a.ingress.TryTake(1) {
		return c.rejectLocked("ingress")
	}
	return nil
}

// admitConnLocked gates a connection create through its tenant's
// budget. Untenanted apps skip the tenant bucket (they have no
// guarantee to protect and are already bounded by the ingress ladder).
func (c *Centralized) admitConnLocked(tenant TenantID) error {
	a := c.admission
	if a == nil || tenant == 0 {
		return nil
	}
	if !a.tenantBucket(tenant).TryTake(1) {
		return c.rejectLocked("tenant_rate")
	}
	return nil
}

// ladderLevelLocked derives the current rung from queue occupancy.
func (c *Centralized) ladderLevelLocked() int {
	a := c.admission
	if a == nil {
		return LadderFull
	}
	occ := float64(len(a.pending)) / float64(a.cfg.QueueLimit)
	switch {
	case occ >= a.cfg.FairFrac:
		return LadderFair
	case occ >= a.cfg.CachedFrac:
		return LadderCached
	default:
		return LadderFull
	}
}

// LadderLevel reports the controller's current degradation rung.
func (c *Centralized) LadderLevel() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ladderLevelLocked()
}

// PendingEnforcements reports the deferred-enforcement queue depth.
func (c *Centralized) PendingEnforcements() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.admission == nil {
		return 0
	}
	return len(c.admission.pending)
}

// enforcePathAdmittedLocked enforces an admitted connection's path
// according to the degradation ladder. Never returns a rejection — the
// connection is already admitted; only rung 0's synchronous enforcement
// can fail (and then the caller rolls back as before).
func (c *Centralized) enforcePathAdmittedLocked(path []topology.LinkID) error {
	a := c.admission
	if a == nil {
		return c.enforcePortsLocked(path)
	}
	level := c.ladderLevelLocked()
	if level == LadderFull && !a.ingress.TryTake(1) {
		// Enforcement budget exhausted: step down one rung.
		level = LadderCached
	}
	c.tel.ladderLevel.Set(float64(level))
	switch level {
	case LadderFull:
		if err := c.enforcePortsLocked(path); err != nil {
			return err
		}
		c.tel.enforceLatency.Observe(c.lastCalc.Seconds())
		return nil
	case LadderCached:
		if len(a.pending) >= a.cfg.QueueLimit {
			// The hard bound (normally unreachable below FairFrac):
			// shed rather than grow without limit.
			c.shedPortsLocked(uniquePorts(path))
			return nil
		}
		a.pending = append(a.pending, pendingEntry{
			ports: uniquePorts(path),
			enq:   a.cfg.Clock.Now(),
		})
		c.tel.admitQueued.Inc()
		c.tel.pendingDepth.Set(float64(len(a.pending)))
		return nil
	default: // LadderFair
		c.shedPortsLocked(uniquePorts(path))
		return nil
	}
}

// shedPortsLocked drops ports to baseline per-flow fair share — the
// ladder's last rung — and clears their enforcement memos so the next
// real enforcement cannot be skipped against a stale "already live"
// signature.
func (c *Centralized) shedPortsLocked(ports []topology.LinkID) {
	for _, l := range ports {
		ps := c.ports[l]
		if ps == nil {
			continue
		}
		deconfigure(c.cfg.Enforcer, l)
		ps.lastKey = ps.lastKey[:0]
		ps.lastEpoch = 0
	}
	c.tel.admitSheds.Inc()
	c.tel.enforceLatency.Observe(0)
}

// Flush drains the pending-enforcement queue: entries younger than
// QueueDeadline are batched into one Eq. 2 enforcement pass; older
// entries are shed to baseline fair share. Call it periodically (the
// open-loop experiments tick it on the virtual clock) or after a storm
// subsides. The enforcement-latency histogram is fed the request→drain
// age of every entry, shed or served.
func (c *Centralized) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushPendingLocked()
}

func (c *Centralized) flushPendingLocked() error {
	a := c.admission
	if a == nil || len(a.pending) == 0 {
		return nil
	}
	now := a.cfg.Clock.Now()
	seen := map[topology.LinkID]bool{}
	var due []topology.LinkID
	sheds := 0
	for _, e := range a.pending {
		age := now.Sub(e.enq)
		c.tel.enforceLatency.Observe(age.Seconds())
		if age > a.cfg.QueueDeadline {
			for _, l := range e.ports {
				if c.ports[l] != nil && !seen[l] {
					deconfigure(c.cfg.Enforcer, l)
					c.ports[l].lastKey = c.ports[l].lastKey[:0]
					c.ports[l].lastEpoch = 0
				}
			}
			sheds++
			continue
		}
		for _, l := range e.ports {
			if !seen[l] {
				seen[l] = true
				due = append(due, l)
			}
		}
	}
	a.pending = a.pending[:0]
	if sheds > 0 {
		c.tel.admitSheds.Add(uint64(sheds))
	}
	c.tel.pendingDepth.Set(0)
	c.tel.ladderLevel.Set(float64(c.ladderLevelLocked()))
	if len(due) == 0 {
		return nil
	}
	slices.Sort(due)
	return c.enforceBatchLocked(due)
}
