package service

import (
	"fmt"
	"sort"
	"sync"
)

// Quota bounds one tenant's use of the service.
type Quota struct {
	// MaxActive caps the tenant's non-terminal requests (Pending, Scheduled,
	// InProgress). 0 means "use the admission layer's default".
	MaxActive int `json:"max_active"`
}

// DefaultMaxActive is the per-tenant active-request cap when no quota was
// configured for the tenant and no default override was given.
const DefaultMaxActive = 4

// QuotaError is the admission layer's typed rejection: the tenant is at its
// active-request cap. The HTTP API maps it to 429 Too Many Requests.
type QuotaError struct {
	Tenant string `json:"tenant"`
	Limit  int    `json:"limit"`
	Active int    `json:"active"`
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q at quota (%d of %d active requests)", e.Tenant, e.Active, e.Limit)
}

// Admission is the gate every submission passes: spec validation, then the
// per-tenant active-request quota against the store's live counts. It is
// deliberately stateless about requests themselves — the store is the one
// source of truth — so admission decisions stay correct across restarts of
// the reconciler.
type Admission struct {
	mu           sync.Mutex
	quotas       map[string]Quota
	defaultQuota Quota
}

// NewAdmission builds an admission gate. quotas maps tenant -> quota;
// tenants not named fall back to defaultMaxActive (<= 0 picks
// DefaultMaxActive).
func NewAdmission(quotas map[string]Quota, defaultMaxActive int) *Admission {
	if defaultMaxActive <= 0 {
		defaultMaxActive = DefaultMaxActive
	}
	a := &Admission{quotas: map[string]Quota{}, defaultQuota: Quota{MaxActive: defaultMaxActive}}
	for t, q := range quotas {
		a.quotas[t] = q
	}
	return a
}

// QuotaFor resolves the effective quota of a tenant.
func (a *Admission) QuotaFor(tenant string) Quota {
	a.mu.Lock()
	defer a.mu.Unlock()
	q, ok := a.quotas[tenant]
	if !ok || q.MaxActive <= 0 {
		return a.defaultQuota
	}
	return q
}

// Tenants lists tenants with explicit quotas, sorted.
func (a *Admission) Tenants() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.quotas))
	for t := range a.quotas {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Admit validates the spec and checks the tenant's quota against the store.
// A *QuotaError (as opposed to a validation error) means "try again later",
// not "the request is malformed".
func (a *Admission) Admit(st *Store, kind Kind, spec Spec) error {
	if err := kind.Validate(spec); err != nil {
		return err
	}
	q := a.QuotaFor(spec.Tenant)
	if active := st.ActiveByTenant()[spec.Tenant]; active >= q.MaxActive {
		return &QuotaError{Tenant: spec.Tenant, Limit: q.MaxActive, Active: active}
	}
	return nil
}
