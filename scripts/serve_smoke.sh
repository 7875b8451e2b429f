#!/bin/sh
# End-to-end smoke test of the tcqrd daemon: build it, start it on an
# ephemeral port, drive it with its own -smoke client (factorize, cache hit,
# coalesced solves, hazard fallback/fail, malformed input, /statz, /metrics),
# scrape /metrics independently with curl, drive the /v1/update contract with
# -smoke-update, and shut it down. The daemon spills to a -cache-dir, so a
# restart on the same directory followed by a second -smoke-update run
# exercises rewarm: the series must be found at the epoch the first run left
# it. A third daemon is started with -fault-spec armed and drives the failure
# contract (injected 500, degraded 503 with Retry-After, cache-only serving,
# fault metrics); -smoke-cluster, which boots its own three in-process nodes,
# runs last. Exits non-zero if a daemon fails to start, any API response
# deviates from the contract, a metrics scrape is missing traffic, or a
# daemon does not drain cleanly on SIGTERM. Run from the repository root;
# `make serve-smoke` wraps this.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
	if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
		kill -9 "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "== build tcqrd =="
go build -o "$workdir/tcqrd" ./cmd/tcqrd

# start_daemon name flags...: starts a daemon on an ephemeral port, logging to
# $workdir/<name>.log, and leaves its address in $addr and pid in $daemon_pid.
start_daemon() {
	name=$1
	shift
	rm -f "$workdir/$name.addr"
	"$workdir/tcqrd" -addr 127.0.0.1:0 -addr-file "$workdir/$name.addr" \
		-deadline 30s "$@" >"$workdir/$name.log" 2>&1 &
	daemon_pid=$!
	i=0
	while [ ! -s "$workdir/$name.addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ] || ! kill -0 "$daemon_pid" 2>/dev/null; then
			echo "$name daemon failed to start:" >&2
			cat "$workdir/$name.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr=$(cat "$workdir/$name.addr")
	echo "$name daemon listening on $addr"
}

# drain_daemon name: SIGTERM, then require a clean exit. The daemon's own
# drain budget is 10s; if it hangs past 15s the watchdog kills it and wait
# reports the non-zero status.
drain_daemon() {
	kill -TERM "$daemon_pid"
	(sleep 15 && kill -9 "$daemon_pid" 2>/dev/null) &
	watchdog=$!
	if wait "$daemon_pid"; then
		drain_status=0
	else
		drain_status=$?
	fi
	kill "$watchdog" 2>/dev/null || true
	daemon_pid=""
	if [ "$drain_status" -ne 0 ]; then
		echo "$1 daemon exited uncleanly (status $drain_status):" >&2
		cat "$workdir/$1.log" >&2
		exit 1
	fi
}

# update_smoke out: runs -smoke-update against $addr, keeping its output.
update_smoke() {
	if ! "$workdir/tcqrd" -smoke-update "http://$addr" >"$1"; then
		cat "$1"
		exit 1
	fi
	cat "$1"
}

# Solves coalesce while they wait for a worker, so the smoke client batches its
# concurrent solves by keeping the workers busy: one worker, which the client
# holds with a slow cold factorize before it sends the burst. Every other
# daemon below runs the default worker count.
echo "== start daemon =="
start_daemon first -workers 1 -cache-dir "$workdir/factors"

echo "== run smoke client =="
"$workdir/tcqrd" -smoke "http://$addr"

# Independent scrape: after the smoke traffic, /metrics must serve the
# Prometheus text format with non-zero request and cache-hit counters. The
# fetcher degrades curl -> wget so the check runs wherever one exists.
echo "== scrape /metrics =="
if command -v curl >/dev/null 2>&1; then
	curl -fsS "http://$addr/metrics" >"$workdir/metrics.txt"
elif command -v wget >/dev/null 2>&1; then
	wget -qO "$workdir/metrics.txt" "http://$addr/metrics"
else
	echo "neither curl nor wget available" >&2
	exit 1
fi
# metric_above family [file]: succeeds when any sample of the family is > 0.
metric_above() {
	awk -v name="$1" '
		$1 == name || index($1, name "{") == 1 { if ($2 + 0 > 0) found = 1 }
		END { exit !found }
	' "${2:-$workdir/metrics.txt}"
}
for family in tcqrd_requests_total tcqrd_cache_hits_total; do
	if metric_above "$family"; then
		echo "ok   $family > 0"
	else
		echo "FAIL $family has no non-zero sample:" >&2
		grep "^$family" "$workdir/metrics.txt" >&2 || echo "(family absent)" >&2
		exit 1
	fi
done
for family in tcqrd_stage_duration_seconds_count tcqrd_hazards_total tcqrd_engine_gemm_calls_total; do
	if grep -q "^$family" "$workdir/metrics.txt"; then
		echo "ok   $family present"
	else
		echo "FAIL $family missing from /metrics" >&2
		exit 1
	fi
done
# metric_label_above family label [file]: succeeds when any sample of the
# family carrying the label substring is > 0. The smoke client drove binary
# frames through /v1/solve, so the wire counters must have binary samples.
metric_label_above() {
	awk -v name="$1" -v lab="$2" '
		index($1, name "{") == 1 && index($1, lab) > 0 { if ($2 + 0 > 0) found = 1 }
		END { exit !found }
	' "${3:-$workdir/metrics.txt}"
}
for enc in json binary; do
	if metric_label_above tcqrd_wire_requests_total "encoding=\"$enc\""; then
		echo "ok   tcqrd_wire_requests_total{encoding=\"$enc\"} > 0"
	else
		echo "FAIL tcqrd_wire_requests_total has no non-zero encoding=\"$enc\" sample:" >&2
		grep "^tcqrd_wire_requests_total" "$workdir/metrics.txt" >&2 || echo "(family absent)" >&2
		exit 1
	fi
done
if metric_label_above tcqrd_wire_responses_total 'encoding="binary"'; then
	echo "ok   tcqrd_wire_responses_total{encoding=\"binary\"} > 0"
else
	echo "FAIL tcqrd_wire_responses_total has no non-zero binary sample:" >&2
	grep "^tcqrd_wire_responses_total" "$workdir/metrics.txt" >&2 || echo "(family absent)" >&2
	exit 1
fi
# The smoke client streamed a 2048x16 matrix in three binary chunks and
# committed it; the chunked-upload session counters must show that traffic.
for family in tcqrd_stream_begun_total tcqrd_stream_committed_total \
	tcqrd_stream_appends_total; do
	if metric_above "$family"; then
		echo "ok   $family > 0"
	else
		echo "FAIL $family has no non-zero sample:" >&2
		grep "^$family" "$workdir/metrics.txt" >&2 || echo "(family absent)" >&2
		exit 1
	fi
done
# All smoke sessions were committed or proven consumed; none may linger.
if awk '$1 == "tcqrd_stream_sessions" && $2 + 0 == 0 { zero = 1 } END { exit !zero }' \
	"$workdir/metrics.txt"; then
	echo "ok   tcqrd_stream_sessions == 0"
else
	echo "FAIL tcqrd_stream_sessions nonzero or absent:" >&2
	grep "^tcqrd_stream_sessions" "$workdir/metrics.txt" >&2 || echo "(family absent)" >&2
	exit 1
fi

echo "== run update smoke client =="
update_smoke "$workdir/update1.txt"

echo "== graceful drain =="
drain_daemon first

# --- restart pass -----------------------------------------------------------
# The same -cache-dir under a new process: the update series must be rewarmed
# at the epoch the first run left it (the client itself requires /statz to
# report rewarmed entries once it finds a continued series), and a second
# three-epoch run must continue from there.
echo "== restart on the same cache dir =="
start_daemon restarted -cache-dir "$workdir/factors"

echo "== run update smoke client again =="
update_smoke "$workdir/update2.txt"
left=$(sed -n 's/^update smoke: series left at epoch //p' "$workdir/update1.txt")
found=$(sed -n 's/^update smoke: series found at epoch //p' "$workdir/update2.txt")
if [ -n "$left" ] && [ "$left" -gt 0 ] && [ "$found" = "$left" ]; then
	echo "ok   restart resumed the series at epoch $found"
else
	echo "FAIL first run left the series at epoch '$left', the restarted daemon resumed at '$found'" >&2
	exit 1
fi

echo "== restarted drain =="
drain_daemon restarted

# --- fault-armed pass -------------------------------------------------------
# A second daemon with the failpoint registry armed (the schedule must match
# faultSmokeSpec in cmd/tcqrd/faultsmoke.go): every second cold factorization
# fails, retry is disabled, and a single internal failure trips degraded
# cache-only mode for 5 minutes. The -smoke-fault client walks it through
# the injected 500, the degraded 503 with Retry-After, and cache-hit serving
# while degraded; the independent scrape then confirms the daemon actually
# injected faults.
echo "== start fault-armed daemon =="
start_daemon fault-armed \
	-fault-spec "seed=7;serve.cache.factorize=error@every=2" \
	-retry-attempts 1 -degrade-threshold 1 -degrade-cooldown 5m

echo "== run fault smoke client =="
"$workdir/tcqrd" -smoke-fault "http://$addr"

echo "== scrape fault metrics =="
if command -v curl >/dev/null 2>&1; then
	curl -fsS "http://$addr/metrics" >"$workdir/metrics2.txt"
else
	wget -qO "$workdir/metrics2.txt" "http://$addr/metrics"
fi
for family in tcqrd_fault_injected_total tcqrd_degraded_entered_total; do
	if metric_above "$family" "$workdir/metrics2.txt"; then
		echo "ok   $family > 0"
	else
		echo "FAIL $family has no non-zero sample:" >&2
		grep "^$family" "$workdir/metrics2.txt" >&2 || echo "(family absent)" >&2
		exit 1
	fi
done

echo "== fault-armed drain =="
drain_daemon fault-armed

# --- cluster pass -----------------------------------------------------------
# Needs no daemon: three in-process nodes, one killed mid-wave.
echo "== run cluster smoke client =="
"$workdir/tcqrd" -smoke-cluster

echo "SERVE SMOKE OK"
