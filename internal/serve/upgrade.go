package serve

import (
	"fmt"
	"time"

	"tcqr"
)

// A hot key earns a float64 Householder R. CGLS and LSQR read R only as the
// right preconditioner (Algorithm 3), so R's quality sets how many passes
// over A every solve against the entry makes, and the float64 Householder R
// (house.R32) preconditions better than the RGSQRF R a cold miss builds. An
// entry counts the refinement iterations its solves spend; the solve that
// takes the count past upgradeBudget queues one upgrade on the pool, which
// factors the entry's A in float64 and publishes the result in the entry's
// place (FactorCache.Upgrade). Paying the factor once the iterations already
// spent would have paid for it is the rent-or-buy rule, which costs at most
// twice the better of never upgrading and upgrading at once, in hindsight.
// DESIGN.md §9 has the measurements.

// Upgrade outcomes, the outcome label of tcqrd_factor_upgrades_total.
const (
	upgradePublished = "published"
	upgradeDropped   = "dropped" // refused at the queue, or the entry moved on
	upgradeFailed    = "failed"  // the backend refused or could not build R
)

// Factor provenances, the factor label of the refinement-iteration histogram
// and the factor attribute of a solve's log line.
const (
	factorRGSQRF  = "rgsqrf"
	factorHouse64 = "house64"
)

func (e *Entry) provenance() string {
	if e.upgraded {
		return factorHouse64
	}
	return factorRGSQRF
}

// upgradeBudget is the refinement iterations an m×n entry may spend before
// it earns the upgrade: the flops of a float64 Householder QR, 2mn² − ⅔n³,
// over those of one iteration, two matrix-vector products with A and two
// triangular solves with R, 4mn + 2n². About 104 at 1024×256, 62 at
// 4096×128.
func upgradeBudget(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return (2*fm*fn*fn - 2*fn*fn*fn/3) / (4*fm*fn + 2*fn*fn)
}

// noteSolve records a successful solve's iterations against the entry that
// served it, and queues the entry's upgrade when they take it past its
// budget. It allocates nothing unless it queues the upgrade. An uncached
// entry (no key) has nothing to publish under and is never upgraded.
func (s *Server) noteSolve(e *Entry, iterations int) {
	s.metrics.refineIterations(e.upgraded).Observe(float64(iterations))
	if e.upgraded || e.Key == "" {
		return
	}
	spent := e.iters.Add(int64(iterations))
	if float64(spent) <= upgradeBudget(e.A.Rows, e.A.Cols) || !e.upgrading.CompareAndSwap(false, true) {
		return
	}
	if s.draining.Load() || s.pool.submit(func() { s.upgrade(e) }) != nil {
		// The next solve over budget tries again.
		e.upgrading.Store(false)
		s.metrics.upgrades.With(upgradeDropped).Inc()
	}
}

// upgrade is the pool task noteSolve queues: it runs the upgrade, unless the
// server began draining meanwhile, and counts its outcome and time.
func (s *Server) upgrade(e *Entry) {
	if s.draining.Load() {
		s.metrics.upgrades.With(upgradeDropped).Inc()
		return
	}
	t0 := time.Now()
	outcome := s.cache.Upgrade(e)
	s.metrics.upgradeSeconds.ObserveDuration(time.Since(t0))
	s.metrics.upgrades.With(outcome).Inc()
}

// Upgrade replaces old by an entry with the same Key, Epoch, A, Config and
// byte count whose R is Backend.HouseholderR of old.A and whose other
// factors (column scales, hazards, engine statistics) are old's, and
// reports the outcome (a backend error or panic is failed). The new entry
// takes old's place in the index, the recency list and its series, and is
// never upgraded again. It is published
// only while old is still indexed and no update holds its series' latch (an
// update begun on old publishes its successor over old, and would leave an
// upgraded twin behind); otherwise the upgrade is dropped. The upgrade is
// not an epoch: the bare key and every versioned key keep resolving, and
// holders of old keep reading old's R. Nor is it spilled: it is derived from
// what the spill log holds, and a rewarmed entry earns it again.
func (c *FactorCache) Upgrade(old *Entry) string {
	c.mu.Lock()
	live := c.entries[old.Key] == old
	c.mu.Unlock()
	if old.upgraded || !live {
		return upgradeDropped
	}
	r, err := c.householderR(old.A)
	if err != nil {
		return upgradeFailed
	}
	// A Factorization is not copied (its memoized ‖A‖₂ estimate is atomic):
	// TestUpgradeCarriesEveryField holds this list to its fields.
	f := &tcqr.Factorization{R: r, ColumnScales: old.F.ColumnScales, Reorthogonalized: old.F.Reorthogonalized,
		EngineStats: old.F.EngineStats, Hazards: old.F.Hazards}
	ne := &Entry{Key: old.Key, Epoch: old.Epoch, A: old.A, F: f, Config: old.Config, bytes: old.bytes, upgraded: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.series[baseKey(old.Key)]
	if c.entries[old.Key] != old || s == nil || s.updating {
		return upgradeDropped
	}
	c.entries[old.Key] = ne
	c.lru.replace(old, ne)
	if s.current == old {
		s.current = ne
	}
	c.upgraded++
	return upgradePublished
}

// householderR runs the backend's HouseholderR on a; a panicking backend is
// an error, as in factor.
func (c *FactorCache) householderR(a *tcqr.Matrix) (r *tcqr.Matrix32, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: panic during upgrade: %v", p)
		}
	}()
	return c.backend.HouseholderR(a)
}
