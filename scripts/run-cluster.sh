#!/bin/sh
# Spawn a local multi-process ocad deployment: SHARDS shard-server
# processes plus one router fronting them (see "Running multi-process"
# in README.md and docs/PROTOCOL.md). Intended for development — the
# production deployment runs the same commands under your process
# supervisor of choice.
#
#   SHARDS     number of shard processes (default 3)
#   REPLICAS   read replicas per shard, following the shard's primary
#              (default 0; the router mirrors them so reads survive a dead primary)
#   GRAPH      input graph file (default: generate a demo LFR graph)
#   ADDR       router listen address (default :8080)
#   BASE_PORT  first shard-server port (default 9301); replicas take
#              the ports after the primaries
#   FAULT_PLAN dev only: path to a fault-plan JSON (docs/OPERATIONS.md)
#              passed to every process via -fault-plan, for rehearsing
#              the failure modes the chaos gate scripts
set -eu

SHARDS="${SHARDS:-3}"
REPLICAS="${REPLICAS:-0}"
GRAPH="${GRAPH:-}"
ADDR="${ADDR:-:8080}"
BASE_PORT="${BASE_PORT:-9301}"
FAULT_PLAN="${FAULT_PLAN:-}"

# $fault_flags is intentionally left unquoted at use sites: empty when
# FAULT_PLAN is unset.
fault_flags=""
if [ -n "$FAULT_PLAN" ]; then
    fault_flags="-fault-plan $FAULT_PLAN"
    echo "run-cluster: FAULT INJECTION ENABLED (dev only): $FAULT_PLAN"
fi

workdir="$(mktemp -d)"
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $pids; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

if [ -z "$GRAPH" ]; then
    GRAPH="$workdir/graph.txt"
    echo "run-cluster: no GRAPH set, generating a demo LFR graph at $GRAPH"
    go run ./cmd/oca gen -type lfr -n 2000 -out "$GRAPH"
fi

echo "run-cluster: building ocad..."
go build -o "$workdir/ocad" ./cmd/ocad

addrs=""
i=0
while [ "$i" -lt "$SHARDS" ]; do
    port=$((BASE_PORT + i))
    "$workdir/ocad" -in "$GRAPH" -shards "$SHARDS" -serve-shard "$i" \
        -addr "127.0.0.1:$port" $fault_flags &
    pids="$pids $!"
    addrs="${addrs:+$addrs,}127.0.0.1:$port"
    i=$((i + 1))
done

# Replicas follow their shard's primary; the router learns about them
# via -replica-addrs (';' between shards, ',' within a shard).
replica_flags=""
if [ "$REPLICAS" -gt 0 ]; then
    replica_lists=""
    port=$((BASE_PORT + SHARDS))
    i=0
    while [ "$i" -lt "$SHARDS" ]; do
        primary="127.0.0.1:$((BASE_PORT + i))"
        list=""
        r=0
        while [ "$r" -lt "$REPLICAS" ]; do
            "$workdir/ocad" -follow "$primary" -addr "127.0.0.1:$port" $fault_flags &
            pids="$pids $!"
            list="${list:+$list,}127.0.0.1:$port"
            port=$((port + 1))
            r=$((r + 1))
        done
        replica_lists="${replica_lists:+$replica_lists;}$list"
        i=$((i + 1))
    done
    replica_flags="-replica-addrs $replica_lists"
    echo "run-cluster: $REPLICAS replica(s) per shard: $replica_lists"
fi

echo "run-cluster: shard servers at $addrs; router on $ADDR (Ctrl-C stops everything)"
# Foreground: the router waits for every shard's cover before serving.
# $replica_flags is intentionally unquoted: empty when REPLICAS=0.
"$workdir/ocad" -shard-addrs "$addrs" -shards "$SHARDS" -addr "$ADDR" $replica_flags $fault_flags
