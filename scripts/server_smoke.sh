#!/bin/sh
# End-to-end smoke of the concurrent query service: build moaserve, start it,
# drive a fixed list of MOA sources at it sequentially with curl, scrape
# /metrics, then require a clean SIGTERM drain. moaserve serves without a
# simulated pager: the scrape must carry no moaserve_pager_faults_total and
# must carry the real-paging probes (moaserve_pager_rusage_ok,
# moaserve_pager_residency_probed); a removed flag (the pager's -pages, the
# storage mode's -storage) must make moaserve exit with a usage error. A
# second run exercises the lifecycle over plain HTTP: 400 on a malformed
# ?timeout=, 504 on an unmeetable one, 413 on an over-limit body, the
# timeout counter on /metrics, and a clean drain afterwards. A third run exercises durability: HTTP ingests into a durable
# data directory across a checkpoint, immediate visibility, SIGKILL (no
# drain), restart on the same directory, and recovery of the acknowledged
# ingests from the checkpoint plus the WAL tail with the recovery metrics
# set. Contained 500s under injected statement faults are covered in
# Go (TestHTTPLifecycle, TestChaosQueryLifecycle).
# Knobs: ADDR.
set -eu

cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18321}
# Sequential passes over the query list per cold run.
rounds=5

bin=$(mktemp -t moaserve.XXXXXX)
go build -o "$bin" ./cmd/moaserve

pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -f "$bin"
}
trap cleanup EXIT

# The query list: a one-BAT scalar, Q6 (a single-table scan-and-aggregate)
# and Q4 (a nest over an exists on the set-valued item attribute).
q_count='count(Order)'
q6='sum(project[*(extendedprice, discount)](
  select[>=(shipdate, date("1994-01-01")), <(shipdate, date("1995-01-01")),
         >=(discount, 0.05), <=(discount, 0.07), <(quantity, 24)](Item)))'
q4='project[<orderpriority : orderpriority, count(%2) : order_count>](
  nest[orderpriority](
    project[<orderpriority : orderpriority>](
      select[>=(orderdate, date("1993-07-01")), <(orderdate, date("1993-10-01")),
             exists(select[<(commitdate, receiptdate)](item))](Order))))'

# wait_ready <label>: poll /healthz until the server answers (the TPC-D
# load — and on restart, WAL recovery — takes a moment).
wait_ready() {
	ready=0
	i=0
	while [ $i -lt 100 ]; do
		if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
			ready=1
			break
		fi
		sleep 0.2
		i=$((i + 1))
	done
	[ "$ready" = 1 ] || { echo "server-smoke: server never became ready ($1)" >&2; exit 1; }
}

# count_orders: run count(Order) over HTTP and print the scalar.
count_orders() {
	curl -fsS -X POST --data "$q_count" "http://$ADDR/query" |
		sed -n 's/.*"elems":\["\([0-9]*\)"\].*/\1/p'
}

# drive_load <label>: $rounds sequential passes over the query list; every
# answer must be a 200.
drive_load() {
	r=0
	while [ $r -lt "$rounds" ]; do
		for src in "$q_count" "$q6" "$q4"; do
			code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data "$src" "http://$ADDR/query?noresult=1")
			[ "$code" = 200 ] || { echo "server-smoke: status $code in round $r ($1)" >&2; exit 1; }
		done
		r=$((r + 1))
	done
}

# run_durability: the writes-and-recovery scenario. Start a server with a
# durable data directory checkpointing every second ingest, publish three
# refresh batches over HTTP (each epoch swap must be visible to queries
# immediately), SIGKILL the process — no drain, no cleanup, the crash the
# WAL exists for — restart on the same directory, and require: the
# directory holds a snap-*.d checkpoint and no *.snap file, the ingested
# rows are still there (recovered from the epoch-2 checkpoint plus the WAL
# record of epoch 3), /metrics reports the recovery and its duration, and
# the restarted server still drains cleanly.
run_durability() {
	datadir=$(mktemp -d -t moa-data.XXXXXX)

	"$bin" -addr "$ADDR" -sf 0.002 -data "$datadir" -snapshot-every 2 &
	pid=$!
	wait_ready durability-cold

	c0=$(count_orders)
	[ "$c0" = 3000 ] || { echo "server-smoke: genesis count(Order) = '$c0', want 3000" >&2; exit 1; }

	for e in 1 2 3; do
		resp=$(curl -fsS -X POST -H 'Content-Type: application/json' \
			--data "{\"generate\":20,\"seed\":9$e}" "http://$ADDR/ingest")
		echo "$resp" | grep -q "\"epoch\":$e" || { echo "server-smoke: ingest response '$resp' lacks epoch $e" >&2; exit 1; }
	done

	c1=$(count_orders)
	[ "$c1" = 3060 ] || { echo "server-smoke: post-ingest count(Order) = '$c1', want 3060" >&2; exit 1; }

	kill -9 "$pid"
	wait "$pid" 2>/dev/null || true
	pid=""
	echo "server-smoke: SIGKILL delivered after three acknowledged ingests" >&2

	ls -d "$datadir"/snap-*.d >/dev/null 2>&1 || { echo "server-smoke: no snap-*.d checkpoint in the data directory" >&2; exit 1; }
	if ls "$datadir"/*.snap >/dev/null 2>&1; then
		echo "server-smoke: the data directory holds a *.snap file" >&2
		exit 1
	fi

	"$bin" -addr "$ADDR" -sf 0.002 -data "$datadir" -snapshot-every 2 &
	pid=$!
	wait_ready durability-recovered

	c2=$(count_orders)
	[ "$c2" = 3060 ] || { echo "server-smoke: recovered count(Order) = '$c2', want 3060" >&2; exit 1; }

	metrics=$(curl -fsS "http://$ADDR/metrics")
	recoveries=$(echo "$metrics" | awk '/^moaserve_recoveries_total /{print $2}')
	epoch=$(echo "$metrics" | awk '/^moaserve_epoch_current /{print $2}')
	recovery_s=$(echo "$metrics" | awk '/^moaserve_recovery_seconds /{print $2}')
	[ "$recoveries" = 1 ] || { echo "server-smoke: recoveries_total = '$recoveries', want 1" >&2; exit 1; }
	[ "$epoch" = 3 ] || { echo "server-smoke: epoch_current = '$epoch' after recovery, want 3" >&2; exit 1; }
	[ -n "$recovery_s" ] || { echo "server-smoke: moaserve_recovery_seconds missing" >&2; exit 1; }

	kill -TERM "$pid"
	wait "$pid"
	pid=""
	rm -rf "$datadir"
	echo "server-smoke: durability scenario ok (ingests survived SIGKILL, recoveries=$recoveries, recovery ${recovery_s}s)" >&2
}

# run_once <label>: start a cold server, load it, log and check the
# /metrics scrape. Runs in the main shell (NOT a command substitution) so
# pid stays visible to the cleanup trap when a step fails mid-run.
run_once() {
	label=$1
	"$bin" -addr "$ADDR" -sf 0.002 &
	pid=$!
	wait_ready "$label"

	drive_load "$label"

	echo "server-smoke: /metrics after load ($label):" >&2
	metrics=$(curl -fsS "http://$ADDR/metrics")
	echo "$metrics" >&2

	# Observability: the latency histogram must be present and conserve —
	# its +Inf cumulative bucket and _count both equal queries_total, which
	# equals the number of queries sent (every query was counted and
	# observed exactly once, none invented).
	want=$((rounds * 3))
	qtotal=$(echo "$metrics" | awk '/^moaserve_queries_total /{print $2}')
	hcount=$(echo "$metrics" | awk '/^moaserve_query_seconds_count /{print $2}')
	hinf=$(echo "$metrics" | awk -F'} ' '/^moaserve_query_seconds_bucket\{le="\+Inf"\}/{print $2}')
	[ "$qtotal" = "$want" ] || { echo "server-smoke: queries_total=$qtotal, want $want ($label)" >&2; exit 1; }
	[ "$hcount" = "$qtotal" ] || { echo "server-smoke: query_seconds_count=$hcount != queries_total=$qtotal ($label)" >&2; exit 1; }
	[ "$hinf" = "$qtotal" ] || { echo "server-smoke: query_seconds +Inf bucket=$hinf != queries_total=$qtotal ($label)" >&2; exit 1; }
	echo "$metrics" | grep -q '^moaserve_slot_wait_seconds_count ' || { echo "server-smoke: slot-wait histogram missing ($label)" >&2; exit 1; }
	echo "$metrics" | grep -q '^moaserve_goroutines ' || { echo "server-smoke: runtime stats missing ($label)" >&2; exit 1; }

	# Paging: no simulated pool behind the server, the OS's own probes only.
	if echo "$metrics" | grep -q '^moaserve_pager_faults_total '; then
		echo "server-smoke: /metrics still carries the simulated pager series ($label)" >&2
		exit 1
	fi
	for m in moaserve_pager_rusage_ok moaserve_pager_residency_probed; do
		echo "$metrics" | grep -q "^$m " || { echo "server-smoke: $m missing ($label)" >&2; exit 1; }
	done

	# Profile round-trip: ?profile=1 must return the structured profile with
	# a statement table and echo the request id we sent.
	prof=$(curl -fsS -X POST -H 'X-Request-Id: smoke-42' --data "$q_count" \
		"http://$ADDR/query?profile=1&noresult=1")
	echo "$prof" | grep -q '"profile":{' || { echo "server-smoke: no profile in ?profile=1 response ($label): $prof" >&2; exit 1; }
	echo "$prof" | grep -q '"statements":\[{' || { echo "server-smoke: profile lacks statements ($label): $prof" >&2; exit 1; }
	echo "$prof" | grep -q '"request_id":"smoke-42"' || { echo "server-smoke: request id not echoed ($label): $prof" >&2; exit 1; }
	echo "server-smoke: histogram conserves (count=$hcount) and ?profile=1 round-trips ($label)" >&2

	kill -TERM "$pid"
	wait "$pid"
	pid=""
	echo "server-smoke: clean shutdown ($label)" >&2
}

# run_lifecycle: the deadline scenario. Start a server with a default query
# deadline, then require over plain HTTP: (1) a malformed ?timeout= is a
# 400, (2) an unmeetable ?timeout= is a 504 — deterministic at 1ns, because
# the interpreter checks cancellation before its first statement, (3) a
# valid query padded past the 1 MiB body limit and followed by garbage is a
# 413, not served truncated, (4) the server still answers 200 afterwards,
# (5) /metrics reports the timeout, (6) SIGTERM drains cleanly even after
# all of the above.
run_lifecycle() {
	"$bin" -addr "$ADDR" -sf 0.002 -query-timeout 30s &
	pid=$!
	wait_ready lifecycle

	code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data "$q6" "http://$ADDR/query?timeout=banana")
	[ "$code" = 400 ] || { echo "server-smoke: malformed timeout gave $code, want 400" >&2; exit 1; }

	code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data "$q6" "http://$ADDR/query?timeout=1ns")
	[ "$code" = 504 ] || { echo "server-smoke: unmeetable timeout gave $code, want 504" >&2; exit 1; }

	big=$(mktemp -t smoke-body.XXXXXX)
	{ printf '%s' "$q_count"; head -c 1048576 /dev/zero | tr '\0' ' '; printf ' this is not MOA'; } >"$big"
	code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$big" "http://$ADDR/query")
	rm -f "$big"
	[ "$code" = 413 ] || { echo "server-smoke: over-limit body gave $code, want 413" >&2; exit 1; }

	code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data "$q6" "http://$ADDR/query?noresult=1")
	[ "$code" = 200 ] || { echo "server-smoke: query after a timeout gave $code, want 200" >&2; exit 1; }

	metrics=$(curl -fsS "http://$ADDR/metrics")
	timeouts=$(echo "$metrics" | awk '/^moaserve_timeouts_total /{print $2}')
	[ -n "$timeouts" ] && [ "$timeouts" -ge 1 ] || { echo "server-smoke: timeout counter missing or zero" >&2; exit 1; }

	kill -TERM "$pid"
	wait "$pid"
	pid=""
	echo "server-smoke: lifecycle scenario ok (timeouts=$timeouts)" >&2
}

# A removed flag is a usage error (the flag package exits 2); the timeout
# turns a server that accepted it into a failure instead of a hang.
for removed in '-pages 0' '-storage mmap'; do
	rc=0
	timeout 30 "$bin" $removed -addr "$ADDR" >/dev/null 2>&1 || rc=$?
	[ "$rc" = 2 ] || { echo "server-smoke: moaserve $removed exited $rc, want 2 (flag removed)" >&2; exit 1; }
done

run_once cold-run

run_lifecycle
run_durability
