package controller

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestRegisterTenantIdempotent(t *testing.T) {
	c, _, _ := rigController(t, 4, 16)
	a, err := c.RegisterTenant("acme", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RegisterTenant("acme", 0.3)
	if err != nil {
		t.Fatalf("idempotent re-registration failed: %v", err)
	}
	if a != b {
		t.Errorf("re-registration returned %d, want original %d", b, a)
	}
	if got := c.GuaranteedSum(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("GuaranteedSum = %g after replay, want 0.3 (counted once)", got)
	}
	if _, err := c.RegisterTenant("acme", 0.4); !errors.Is(err, ErrTenantMismatch) {
		t.Errorf("conflicting guarantee = %v, want ErrTenantMismatch", err)
	}
	if c.Tenants() != 1 {
		t.Errorf("Tenants = %d, want 1", c.Tenants())
	}
}

func TestRegisterTenantInfeasible(t *testing.T) {
	c, _, _ := rigController(t, 4, 16)
	if _, err := c.RegisterTenant("big", 0.6); err != nil {
		t.Fatal(err)
	}
	_, err := c.RegisterTenant("greedy", 0.5)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("over-cap guarantee = %v, want ErrInfeasible", err)
	}
	if !IsInfeasible(err) {
		t.Error("IsInfeasible(err) = false for a local ErrInfeasible")
	}
	// The string-flattened form (what an RPC client sees) must still
	// classify.
	if !IsInfeasible(errors.New(err.Error())) {
		t.Error("IsInfeasible failed on the flattened message")
	}
	if got := c.GuaranteedSum(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("GuaranteedSum = %g after rejection, want 0.6", got)
	}
	// Freeing the guarantee makes room again.
	if err := c.DeregisterTenant(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTenant("greedy", 0.5); err != nil {
		t.Fatalf("guarantee after release rejected: %v", err)
	}
}

func TestRegisterTenantValidation(t *testing.T) {
	c, _, _ := rigController(t, 4, 16)
	for _, min := range []float64{-0.1, 1.0, 1.5, math.NaN()} {
		if _, err := c.RegisterTenant("x", min); err == nil {
			t.Errorf("guarantee %g accepted", min)
		}
	}
	if _, err := c.RegisterTenant("", 0.1); err == nil {
		t.Error("empty tenant name accepted")
	}
	if _, _, err := c.RegisterIn(99, "steep"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("RegisterIn(unknown) = %v, want ErrUnknownTenant", err)
	}
}

func TestTenantFloorLifted(t *testing.T) {
	c, _, top := rigController(t, 4, 16)
	hosts := top.Hosts()
	// "flat" is nearly insensitive: the plain Eq. 2 solve gives it close
	// to the MinShare floor. A 50% guarantee on its tenant must lift it.
	tid, err := c.RegisterTenant("latency-tier", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	flat, _, err := c.RegisterIn(tid, "flat")
	if err != nil {
		t.Fatal(err)
	}
	steep, _, _ := c.Register("steep")
	mid, _, _ := c.Register("mid1")
	if _, err := c.ConnCreate(flat, hosts[0], hosts[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnCreate(steep, hosts[1], hosts[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnCreate(mid, hosts[2], hosts[3]); err != nil {
		t.Fatal(err)
	}
	shares, err := c.TenantShares()
	if err != nil {
		t.Fatal(err)
	}
	if got := shares[tid]; got < 0.5-1e-9 {
		t.Errorf("tenant share = %g, want >= guaranteed 0.5", got)
	}
	if tt, err := c.TenantOf(flat); err != nil || tt != tid {
		t.Errorf("TenantOf(flat) = %d,%v, want %d", tt, err, tid)
	}
	if tt, _ := c.TenantOf(steep); tt != 0 {
		t.Errorf("TenantOf(steep) = %d, want 0 (untenanted)", tt)
	}
}

func TestTenantFloorsWorkConserving(t *testing.T) {
	c, _, _ := rigController(t, 4, 16)
	// A tenant with a large guarantee but no registered applications must
	// not reserve anything: the present apps' solve is untouched.
	if _, err := c.RegisterTenant("ghost", 0.8); err != nil {
		t.Fatal(err)
	}
	a, _, _ := c.Register("steep")
	b, _, _ := c.Register("flat")
	ids := []AppID{a, b}
	withGhost, err := c.solveWeights(ids)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range withGhost {
		sum += w
	}
	if math.Abs(sum-c.cfg.CSaba) > 1e-9 {
		t.Errorf("weight sum = %g, want CSaba %g (budget conserved)", sum, c.cfg.CSaba)
	}
	// Same solve with the ghost tenant gone must be bit-identical.
	c2, _, _ := rigController(t, 4, 16)
	a2, _, _ := c2.Register("steep")
	b2, _, _ := c2.Register("flat")
	plain, err := c2.solveWeights([]AppID{a2, b2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if withGhost[i] != plain[i] {
			t.Errorf("weight[%d] = %g with absent tenant, want %g (no reservation)", i, withGhost[i], plain[i])
		}
	}
}

func TestTenantFloorsPreserveBudgetUnderLift(t *testing.T) {
	c, _, _ := rigController(t, 4, 16)
	tid, _ := c.RegisterTenant("guaranteed", 0.6)
	fa, _, err := c.RegisterIn(tid, "flat")
	if err != nil {
		t.Fatal(err)
	}
	sa, _, _ := c.Register("steep")
	ma, _, _ := c.Register("mid1")
	ids := []AppID{fa, sa, ma}
	slices.Sort(ids)
	weights, err := c.solveWeights(ids)
	if err != nil {
		t.Fatal(err)
	}
	var sum, tenantSum float64
	for i, id := range ids {
		sum += weights[i]
		if id == fa {
			tenantSum += weights[i]
		}
	}
	if math.Abs(sum-c.cfg.CSaba) > 1e-9 {
		t.Errorf("lifted weight sum = %g, want %g", sum, c.cfg.CSaba)
	}
	if tenantSum < 0.6*c.cfg.CSaba-1e-9 {
		t.Errorf("tenant mass = %g, want >= floor %g", tenantSum, 0.6*c.cfg.CSaba)
	}
	for i, w := range weights {
		if w < 0 {
			t.Errorf("weight[%d] = %g went negative under water-fill", i, w)
		}
	}
}

func TestDeregisterTenantWithApps(t *testing.T) {
	c, _, _ := rigController(t, 4, 16)
	tid, _ := c.RegisterTenant("busy", 0.2)
	id, _, err := c.RegisterIn(tid, "mid2")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeregisterTenant(tid); err == nil {
		t.Error("DeregisterTenant with live apps should fail")
	}
	if err := c.Deregister(id); err != nil {
		t.Fatal(err)
	}
	if err := c.DeregisterTenant(tid); err != nil {
		t.Errorf("DeregisterTenant after app removal: %v", err)
	}
	if c.GuaranteedSum() != 0 {
		t.Errorf("GuaranteedSum = %g after removal, want 0", c.GuaranteedSum())
	}
}
