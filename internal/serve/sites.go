package serve

import (
	"fmt"
	"slices"
	"strings"

	"tcqr/internal/cluster"
	"tcqr/internal/tcsim"
)

// Failpoint site names threaded through the serving stack (see
// internal/faultinject and DESIGN.md §11 for the naming scheme and spec
// grammar). Each is a single atomic nil-check unless a fault schedule is
// armed. Sites a request reaches outside this package are listed in
// CheckFaultSites; tsqr.block.factor / tsqr.tree.reduce exist in source
// (internal/tsqr, which only the benchmark's kernel probe runs) but no daemon
// can fire them, so CheckFaultSites rejects them like a typo.
const (
	// sitePoolEnqueue fires in Pool.run before a task enters the queue;
	// error faults surface as 500s from the submitting request.
	sitePoolEnqueue = "serve.pool.enqueue"
	// sitePoolDequeue fires in the worker between dequeuing a task and
	// running it — the window the panic-recovery hardening test aims at.
	sitePoolDequeue = "serve.pool.dequeue"
	// siteCacheFactorize fires in the cache leader immediately before the
	// backend Factorize call; panics here exercise the singleflight
	// poison-recovery path.
	siteCacheFactorize = "serve.cache.factorize"
	// siteWireDecode fires inside request-body decoding; error faults
	// surface as 400 bad_input, exactly like a real decode failure.
	siteWireDecode = "serve.wire.decode"
	// siteWireEncode fires before response encoding; error faults surface
	// as 500s after compute succeeded.
	siteWireEncode = "serve.wire.encode"
	// siteUpdateApply fires inside /v1/update between latching the series
	// and computing the updated factorization; error faults abort the
	// update (the current epoch stays published, the series unlocks).
	siteUpdateApply = "serve.update.apply"
	// siteSpillWrite fires in the spill writer after encoding, modeling a
	// crash: a torn (half-length) file is left at the final name — the
	// artifact the checksummed rewarm pass must quarantine.
	siteSpillWrite = "serve.spill.write"
	// siteSpillLoad fires per file during restart rewarm; error faults skip
	// the file as a read error without quarantining it.
	siteSpillLoad = "serve.spill.load"
)

// faultSites is every failpoint a daemon process can fire: this package's,
// the cluster tier's (the schedule TestClusterChaosSoak arms; DESIGN.md §14),
// and the one the library evaluates under a request — tcsim.SiteGemm delays
// or corrupts an engine GEMM result.
var faultSites = []string{
	sitePoolEnqueue, sitePoolDequeue, siteCacheFactorize,
	siteWireDecode, siteWireEncode, siteUpdateApply,
	siteSpillWrite, siteSpillLoad,
	cluster.SiteRoute, cluster.SiteReplicate, cluster.SiteProbe, cluster.SiteHandoff,
	tcsim.SiteGemm,
}

// CheckFaultSites reports the armed site names no daemon can fire, with the
// valid ones listed. faultinject.Arm takes any name — a site is a string its
// package owns — so a typo in -fault-spec would otherwise arm silently and
// never fire; tcqrd calls this on faultinject.Sites() at startup.
func CheckFaultSites(armed []string) error {
	var unknown []string
	for _, s := range armed {
		if !slices.Contains(faultSites, s) {
			unknown = append(unknown, s)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	return fmt.Errorf("unknown failpoint site %s (valid sites: %s)",
		strings.Join(unknown, ", "), strings.Join(faultSites, " "))
}
