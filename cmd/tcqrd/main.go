// Command tcqrd is the factorization-serving daemon: a stdlib net/http JSON
// API over the tcqr library's "factor once, apply many times" pipeline.
//
//	POST /v1/factorize  — factor a matrix (content-hash cached, singleflight)
//	POST /v1/solve      — least squares against a cached factorization
//	POST /v1/update     — append rows to (or downdate rows from) a cached
//	                      factorization incrementally, publishing a new
//	                      epoch key@N while in-flight solves keep theirs
//	POST /v1/lowrank    — truncated QR-SVD low-rank approximation
//	GET  /healthz       — liveness (503 while draining)
//	GET  /statz         — cache / pool / timing / hazard counters
//	GET  /metrics       — Prometheus text exposition of every counter,
//	                      gauge, and latency histogram
//
// A matrix enters in one request, as JSON or as one binary frame (DESIGN.md
// §12, §13): /v1/factorize, or inline in /v1/solve and /v1/lowrank. Rows
// that arrive after it are appended with /v1/update.
//
// Responses carry a Server-Timing header (decode, key, queue, factorize,
// solve, encode, …) and serialize every numerical hazard the fallback ladder detected or
// recovered from. SIGINT/SIGTERM drain gracefully: in-flight and queued
// requests complete, new ones get 503.
//
// Usage:
//
//	tcqrd [-addr :8723] [-workers N] [-queue 64] [-cache 32]
//	      [-cache-max-bytes 0] [-cache-dir path] [-spill-max-bytes 0]
//	      [-deadline 30s] [-drain-timeout 10s] [-addr-file path]
//	      [-log-level info] [-debug-addr host:port]
//	      [-node-id a] [-peers a=h:p,b=h:p,...] [-replicas 2]
//	      [-probe-interval 1s] [-fault-spec schedule]
//	tcqrd [-smoke] [-version]
//
// -peers turns the daemon into one member of a tcqrd cluster (DESIGN.md §14):
// keys are sharded over a consistent-hash ring, keyed requests are forwarded
// to their owner nodes over the binary wire protocol, fresh factorizations
// fan out to -replicas owners, and node loss is absorbed by replica reads
// plus hinted handoff. -node-id names this node's entry in the member list;
// -probe-interval paces the peer health probes that take down peers out of
// routing. README.md has a 3-node localhost quickstart.
//
// -cache-dir turns on the write-behind persistence tier: every published
// factorization (initial or updated epoch) spills to a checksummed record in
// its series' log under the directory, and a restarted daemon rewarms its
// cache from the valid ones (torn records are quarantined) — by-key solves
// hit immediately instead of stampeding cold factorizes. -spill-max-bytes
// bounds the directory; -cache-max-bytes bounds resident memory alongside
// the -cache entry cap.
//
// -log-level selects the structured (slog) logging threshold: debug, info,
// warn, error, or off (per-request records log at info, client errors at
// warn, server errors at error). -debug-addr starts a second listener
// serving net/http/pprof under /debug/pprof/ — kept off the public API
// listener so profiling endpoints are never exposed to API clients.
//
// A failed compute is one attempt and one 500, and the next request is
// served as if it never happened (DESIGN.md §11). -fault-spec arms the
// deterministic failpoint registry (internal/faultinject) with a seeded fault
// schedule — a testing facility; never arm it in production.
//
// -smoke runs the binary as its own end-to-end check instead (smoke.go,
// scenarios.go): it re-executes itself as daemon children on ephemeral ports
// — one daemon with a spill directory, a restart on that directory, one armed
// with a fault schedule, and three wired into a cluster of which one is lost
// to SIGKILL — drives each through its scenario of the API, update, failure
// and cluster contracts, asserts /metrics, and requires every child it
// SIGTERMs to drain and exit 0. It prints one line per check and exits
// non-zero if any fails; scripts/serve_smoke.sh (make serve-smoke) builds the
// binary and runs it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tcqr/internal/cluster"
	"tcqr/internal/cpufeat"
	"tcqr/internal/faultinject"
	"tcqr/internal/metrics"
	"tcqr/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8723", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "compute worker count")
		queue        = flag.Int("queue", 64, "admission queue depth (excess requests get 429)")
		cacheEntries = flag.Int("cache", 32, "factorization cache capacity (LRU entries)")
		cacheBytes   = flag.Int64("cache-max-bytes", 0, "factorization cache byte budget on top of the entry cap (0 = entries only)")
		cacheDir     = flag.String("cache-dir", "", "persist factorizations to this directory (write-behind spill; rewarm on restart; empty disables)")
		spillBytes   = flag.Int64("spill-max-bytes", 0, "on-disk byte budget of -cache-dir, oldest files deleted first (0 = unbounded)")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening")
		logLevel     = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error, off")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
		smoke        = flag.Bool("smoke", false, "run the end-to-end smoke (starts the daemons it needs from this binary, checks the API, update, restart, fault and cluster contracts) and exit")

		nodeID        = flag.String("node-id", "", "this node's cluster member id (required with -peers)")
		peers         = flag.String("peers", "", "static cluster membership as id=host:port,... including this node (empty = single-node)")
		replicas      = flag.Int("replicas", 0, "replica owners per key (0 = default 2; clamped to member count)")
		probeInterval = flag.Duration("probe-interval", 0, "peer health-probe period; also paces handoff delivery (0 = default 1s)")

		showVersion = flag.Bool("version", false, "print the build version and exit")

		faultSpec = flag.String("fault-spec", "", "arm the deterministic failpoint registry with this schedule (DESIGN.md §11 grammar; testing only)")
	)
	flag.Parse()

	if *showVersion {
		fmt.Printf("tcqrd %s %s kernels=%s\n", version, runtime.Version(), cpufeat.Kernels())
		return
	}
	if *smoke {
		os.Exit(runSmoke())
	}

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcqrd: %v\n", err)
		os.Exit(2)
	}

	if *faultSpec != "" {
		if err := faultinject.Arm(*faultSpec); err != nil {
			fatal(logger, "bad -fault-spec", "err", err)
		}
		if err := serve.CheckFaultSites(faultinject.Sites()); err != nil {
			fatal(logger, "bad -fault-spec", "err", err)
		}
		// Loud on purpose: an armed registry injects failures into production
		// traffic, so the fact (and the exact sites) must be in the log.
		warn(logger, "fault injection armed", "sites", faultinject.Sites())
	}

	// One shared registry: the serve tier's tcqrd_* families, the cluster
	// tier's tcqrd_cluster_* families, and the build-info gauge all land on
	// the same /metrics page.
	reg := metrics.NewRegistry()
	registerBuildInfo(reg)

	var node *cluster.Node
	if *peers != "" {
		members, err := cluster.ParsePeers(*peers)
		if err != nil {
			fatal(logger, "bad -peers", "err", err)
		}
		if *nodeID == "" {
			fatal(logger, "-peers requires -node-id")
		}
		node, err = cluster.New(cluster.Config{
			SelfID:        *nodeID,
			Members:       members,
			Replicas:      *replicas,
			ProbeInterval: *probeInterval,
			Registry:      reg,
			Logger:        logger,
		})
		if err != nil {
			fatal(logger, "cluster setup failed", "err", err)
		}
		info(logger, "cluster enabled", "node_id", *nodeID,
			"members", len(members), "replicas", node.Replicas())
	}

	srv := serve.New(serve.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		CacheMaxBytes:   *cacheBytes,
		CacheDir:        *cacheDir,
		SpillMaxBytes:   *spillBytes,
		DefaultDeadline: *deadline,
		Logger:          logger,
		Registry:        reg,
		Cluster:         node,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", *addr, "err", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(logger, "write -addr-file failed", "err", err)
		}
	}
	info(logger, "listening", "addr", bound, "workers", *workers, "queue", *queue,
		"cache", *cacheEntries,
		"kernels", cpufeat.Kernels())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(logger, "debug listen failed", "addr", *debugAddr, "err", err)
		}
		info(logger, "pprof listening", "addr", dln.Addr().String())
		go func() {
			// The profiling mux is deliberately its own listener (and its own
			// mux — not http.DefaultServeMux) so pprof is never reachable
			// through the public API address.
			dmux := http.NewServeMux()
			dmux.HandleFunc("/debug/pprof/", pprof.Index)
			dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			if err := http.Serve(dln, dmux); err != nil {
				warn(logger, "pprof server exited", "err", err)
			}
		}()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(logger, "serve failed", "err", err)
	case <-ctx.Done():
	}

	info(logger, "draining", "budget", (*drainTimeout).String())
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		warn(logger, "shutdown error", "err", err)
	}
	if err := srv.AwaitIdle(dctx); err != nil {
		warn(logger, "drain incomplete", "err", err)
		os.Exit(1)
	}
	if node != nil {
		// Last chance to re-home queued hints before the process goes away:
		// deliver what the owners will accept, then stop the loops.
		if left := node.DrainHandoff(dctx); left > 0 {
			warn(logger, "handoff drain incomplete", "undelivered", left)
		}
		node.Close()
	}
	// The spill tier is write-behind: let it finish the files it still has
	// queued, or a restart on the same -cache-dir rewarms an older epoch than
	// the one the last response named.
	srv.Close()
	info(logger, "drained cleanly")
}

// buildLogger maps the -log-level flag to a text slog.Logger on stderr, or
// nil for "off" (which disables request logging entirely).
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// The lifecycle helpers keep the daemon speaking through the same structured
// logger as the request path, while degrading to stderr (fatal) or silence
// when logging is off.

func info(lg *slog.Logger, msg string, args ...any) {
	if lg != nil {
		lg.Info(msg, args...)
	}
}

func warn(lg *slog.Logger, msg string, args ...any) {
	if lg != nil {
		lg.Warn(msg, args...)
	}
}

func fatal(lg *slog.Logger, msg string, args ...any) {
	if lg != nil {
		lg.Error(msg, args...)
	} else {
		fmt.Fprintf(os.Stderr, "tcqrd: %s %v\n", msg, args)
	}
	os.Exit(1)
}
