#!/bin/sh
# End-to-end smoke of the out-of-core storage path: build moaserve, start it
# on a fresh data directory checkpointing every ingest (genesis is served
# from memory), assert the baseline row count and capture a Figure-9-style
# query answer, ingest a refresh batch over HTTP (which writes the columnar
# heap-file checkpoint of epoch 1), then SIGKILL the process — no drain — and
# restart with default flags on the same directory. The restarted server
# must recover by MAPPING the heap files (not rebuilding), answer
# bit-identically (row counts and the captured query's elems payload),
# report the recovery on /metrics and accept a further ingest merged onto
# the mapped columns. Real-pager observability is asserted on the restart:
# moaserve_pager_mapped_bytes_real must be nonzero, the mappings must be
# mincore-probed on linux (a heap file read into memory is not), and
# moaserve_pager_faults_real_total nonzero when getrusage is available.
# The checkpoint directory must hold MANIFEST.json plus pack files only.
# Knobs: ADDR.
set -eu

cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18341}

bin=$(mktemp -t moaserve.XXXXXX)
go build -o "$bin" ./cmd/moaserve

pid=""
datadir=$(mktemp -d -t moa-ooc.XXXXXX)
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -f "$bin"
	rm -rf "$datadir"
}
trap cleanup EXIT

# wait_ready <label>: poll /healthz until the server answers (bulk load on
# the first start, heap mapping + WAL replay on the restart).
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
	[ "$ready" = 1 ] || { echo "outofcore-smoke: server never became ready ($1)" >&2; exit 1; }
}

count_orders() {
	curl -fsS -X POST --data 'count(Order)' "http://$ADDR/query" |
		sed -n 's/.*"elems":\["\([0-9]*\)"\].*/\1/p'
}

# query_elems <moa>: run a query and print only the rendered elems payload
# (the response also carries elapsed_us etc., which legitimately vary).
query_elems() {
	curl -fsS -X POST --data "$1" "http://$ADDR/query" |
		sed -n 's/.*"elems":\[\(.*\)\],"elapsed_us".*/\1/p'
}

# Q6: scan-select-aggregate over Item; the float sum makes a sharp
# bit-identity probe across the restart.
q='sum(project[*(extendedprice, discount)](
  select[>=(shipdate, date("1994-01-01")), <(shipdate, date("1995-01-01")),
         >=(discount, 0.05), <=(discount, 0.07), <(quantity, 24)](Item)))'

# check_real_pager <label>: the /metrics real-residency twins. Mapped bytes
# must be nonzero and, on linux, probed by mincore (only a real file
# mapping is); the fault counter only when the platform actually answered
# getrusage.
check_real_pager() {
	metrics=$(curl -fsS "http://$ADDR/metrics")
	mapped=$(echo "$metrics" | awk '/^moaserve_pager_mapped_bytes_real /{print $2}')
	probed=$(echo "$metrics" | awk '/^moaserve_pager_residency_probed /{print $2}')
	rusage=$(echo "$metrics" | awk '/^moaserve_pager_rusage_ok /{print $2}')
	faults=$(echo "$metrics" | awk '/^moaserve_pager_faults_real_total /{print $2}')
	[ -n "$mapped" ] && [ "$mapped" -gt 0 ] || { echo "outofcore-smoke: mapped_bytes_real = '$mapped', want > 0 ($1)" >&2; exit 1; }
	if [ "$(uname -s)" = Linux ]; then
		[ "$probed" = 1 ] || { echo "outofcore-smoke: residency_probed = '$probed', want 1: the heap files were read, not mapped ($1)" >&2; exit 1; }
	fi
	if [ "$rusage" = 1 ]; then
		[ -n "$faults" ] && [ "$faults" -gt 0 ] || { echo "outofcore-smoke: faults_real_total = '$faults' with rusage available ($1)" >&2; exit 1; }
	else
		echo "outofcore-smoke: getrusage unavailable, skipping fault assertion ($1)" >&2
	fi
	echo "outofcore-smoke: real pager observable ($1): mapped=$mapped faults=${faults:-n/a}" >&2
}

# --- phase 1: a fresh directory, checkpointed by its first ingest --------
"$bin" -addr "$ADDR" -sf 0.002 -data "$datadir" -snapshot-every 1 &
pid=$!
wait_ready fresh

c0=$(count_orders)
[ "$c0" = 3000 ] || { echo "outofcore-smoke: genesis count(Order) = '$c0', want 3000" >&2; exit 1; }
a0=$(query_elems "$q")
[ -n "$a0" ] || { echo "outofcore-smoke: Q6 returned no elems" >&2; exit 1; }

resp=$(curl -fsS -X POST -H 'Content-Type: application/json' \
	--data '{"generate":20,"seed":99}' "http://$ADDR/ingest")
echo "$resp" | grep -q '"epoch":1' || { echo "outofcore-smoke: ingest response '$resp' lacks epoch 1" >&2; exit 1; }
c1=$(count_orders)
[ "$c1" = 3020 ] || { echo "outofcore-smoke: post-ingest count(Order) = '$c1', want 3020" >&2; exit 1; }
a1=$(query_elems "$q")
ls -d "$datadir"/snap-*1.d >/dev/null 2>&1 || { echo "outofcore-smoke: the ingest left no epoch-1 checkpoint" >&2; exit 1; }
snap=$(ls -d "$datadir"/snap-*1.d)

kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "outofcore-smoke: SIGKILL delivered after acknowledged ingest" >&2

# --- phase 2: a default-flag restart must MAP the heap checkpoint --------
"$bin" -addr "$ADDR" -sf 0.002 -data "$datadir" &
pid=$!
wait_ready recovered

c2=$(count_orders)
[ "$c2" = 3020 ] || { echo "outofcore-smoke: recovered count(Order) = '$c2', want 3020" >&2; exit 1; }
a2=$(query_elems "$q")
[ "$a2" = "$a1" ] || { echo "outofcore-smoke: recovered Q6 diverges: '$a2' != '$a1'" >&2; exit 1; }

metrics=$(curl -fsS "http://$ADDR/metrics")
recoveries=$(echo "$metrics" | awk '/^moaserve_recoveries_total /{print $2}')
[ "$recoveries" = 1 ] || { echo "outofcore-smoke: recoveries_total = '$recoveries', want 1" >&2; exit 1; }
check_real_pager recovered

# The checkpoint the restart mapped is one pack plus its manifest: no
# per-part heap files.
[ -f "$snap/MANIFEST.json" ] || { echo "outofcore-smoke: $snap has no MANIFEST.json" >&2; exit 1; }
ls "$snap"/*.pack >/dev/null 2>&1 || { echo "outofcore-smoke: $snap holds no pack file: $(ls "$snap")" >&2; exit 1; }
if ls "$snap"/*.tail.heap "$snap"/*.head.heap >/dev/null 2>&1; then
	echo "outofcore-smoke: $snap holds per-part heap files: $(ls "$snap")" >&2
	exit 1
fi
stray=$(ls "$snap" | grep -v -e '^MANIFEST\.json$' -e '\.pack$' || true)
[ -z "$stray" ] || { echo "outofcore-smoke: $snap holds files beside MANIFEST.json and its packs: $stray" >&2; exit 1; }

# A further ingest merges onto the mapped columns.
resp=$(curl -fsS -X POST -H 'Content-Type: application/json' \
	--data '{"generate":20,"seed":98}' "http://$ADDR/ingest")
echo "$resp" | grep -q '"epoch":2' || { echo "outofcore-smoke: post-recovery ingest response '$resp' lacks epoch 2" >&2; exit 1; }
c3=$(count_orders)
[ "$c3" = 3040 ] || { echo "outofcore-smoke: post-recovery count(Order) = '$c3', want 3040" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid"
pid=""
echo "outofcore-smoke: mapped recovery ok (ingest survived SIGKILL, answers bit-identical: $a1)"
