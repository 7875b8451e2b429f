package serve

// Failpoint site names threaded through the serving stack (see
// internal/faultinject and DESIGN.md §11 for the naming scheme and spec
// grammar). Each is a single atomic nil-check unless a fault schedule is
// armed. Sites outside this package: gram.ladder.rung (forces a panel-rung
// breakdown, driving the escalation ladder), tcsim.gemm (delays or corrupts
// an engine GEMM result), tsqr.block.factor / tsqr.tree.reduce (library only:
// a leaf or a reduction node of FactorizeTall, which no request reaches),
// and the cluster tier's cluster.route / cluster.replicate / cluster.probe /
// cluster.handoff (fail a peer forward, a replica fan-out delivery, a health
// probe, or a handoff hint delivery — the schedule TestClusterChaosSoak
// arms; see DESIGN.md §14).
const (
	// sitePoolEnqueue fires in Pool.Do before a task enters the queue;
	// error faults surface as 500s from the submitting request.
	sitePoolEnqueue = "serve.pool.enqueue"
	// sitePoolDequeue fires in the worker between dequeuing a task and
	// running it — the window the panic-recovery hardening test aims at.
	sitePoolDequeue = "serve.pool.dequeue"
	// siteCacheFactorize fires in the cache leader immediately before the
	// backend Factorize call; panics here exercise the singleflight
	// poison-recovery path.
	siteCacheFactorize = "serve.cache.factorize"
	// siteCoalesceFlush fires at the head of every batch flush; delay
	// faults simulate slow flushes, error faults fail the whole batch.
	siteCoalesceFlush = "serve.coalesce.flush"
	// siteWireDecode fires inside request-body decoding; error faults
	// surface as 400 bad_input, exactly like a real decode failure.
	siteWireDecode = "serve.wire.decode"
	// siteWireEncode fires before response encoding; error faults surface
	// as 500s after compute succeeded.
	siteWireEncode = "serve.wire.encode"
	// siteStreamAppend fires in the chunked-upload append handler after the
	// session is resolved but before the row block is accepted; error faults
	// surface as 500s and leave the session intact for a client retry.
	siteStreamAppend = "serve.stream.append"
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
