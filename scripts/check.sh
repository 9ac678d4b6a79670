#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a change lands.
#   1. release build of the whole workspace
#   2. full test suite, then the process-spawning CLI suites (router,
#      shard, replication, crash_recovery, cli_integration) 3 more times
#   3. clippy with warnings promoted to errors
#   4. chaos smoke: a seeded fault-injection run against a real server must
#      sustain the load, contain every injected panic, and drain cleanly
#   5. parallel determinism: `rwr query` at 1 and 4 threads must print
#      byte-identical results, and a bench_parallel smoke run must pass its
#      parallel-path gate (every query's plan fills one wave at 4 threads,
#      so the N-thread pass is not serial) and its bitwise 1-vs-N gate (the
#      ≥2× speedup gate self-disables on <4 cores)
#   6. recovery smoke: mutate a durable server, SIGKILL it, restart on the
#      same --data-dir, and require the WAL replay banner plus a byte-
#      identical full-scores query; then a bench_recovery smoke run must
#      pass its zero-loss and torn-tail gates plus the group-commit gate
#      (batched fsync must multiply WAL-commit-path write throughput ≥3×
#      over per-mutation fsync with zero acknowledged loss)
#   7. replication smoke: primary + read replica over WAL shipping; the
#      replica must answer bit-identically at the same version and reject
#      writes; SIGKILL the primary, promote the replica, and require no
#      acknowledged mutation lost and a monotonic version; then a
#      bench_replication smoke run must pass its bit-identity gate
#   8. dynamic smoke: a bench_dynamic run must pass its hit-rate gate
#      (upgrade path strictly beats the invalidate-everything baseline)
#      and its error gate (every upgraded vector within its accumulated
#      claim of a fresh recompute); the chaos smoke in step 4 runs with
#      the upgrade path enabled so fault containment covers it too
#   9. failover smoke: replica shipping through an `rwr netfault` proxy;
#      partition the link, promote the replica with a direct fence probe
#      at the old primary, require the old primary to bounce writes with
#      the typed `fenced` error, heal, and require bitwise convergence
#      with the old primary rejoined as a replica; then a bench_failover
#      smoke run must pass its zero-fenced-writes / zero-loss /
#      bit-identity gates
#  10. c10k smoke: a bench_c10k run must hold a ladder of idle
#      connections on the event-loop backend with O(workers) process
#      threads and a non-degraded active-stream p99 at the top rung
#  11. router smoke: a bench_router run spawns a real replicated cluster
#      (rwr serve children) behind the version-aware router and must pass
#      its hard gates — zero client-visible read errors while a replica
#      is SIGKILLed, zero read-your-writes violations and zero
#      acked-write loss across a NetFault partition plus automated
#      primary failover, and hedged p99 strictly below unhedged p99
#      against a chaos-delayed replica
#  12. sharding smoke: two primaries behind an `rwr router --shard` front
#      (shard 1 replicated, shard 2 the catch-all); namespaces must land
#      on their mapped shard, a write to one tenant must not move another
#      tenant's applied version, and SIGKILLing shard 1's primary must
#      fail over shard 1 only — shard 2 keeps answering and the next t0
#      write acks above the pre-kill version; then a bench_shard smoke
#      run must pass its ≥1.8× scale-out, zero-cross-tenant-cache-hit,
#      and zero-acked-loss gates
#
# Every BENCH_*.json produced by the smoke runs is appended as one line
# (run id, git rev, metric name→value map) to the committed
# BENCH_HISTORY.jsonl, so regressions are visible in review diffs.
#
# The workspace builds offline (external deps resolve to shims/*), so pin
# CARGO_NET_OFFLINE to keep cargo from ever touching the network.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Appends one JSONL line summarizing a BENCH_*.json to BENCH_HISTORY.jsonl:
# {"run": "<utc>-<pid>", "bench": "<name>", "rev": "<short sha>",
#  "metrics": {"<entry name>": <value>, ...}}
append_bench_history() {
  local file="$1" bench rev run metrics
  [[ -f "$file" ]] || return 0
  bench=$(basename "$file" .json)
  rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  run="$(date -u +%Y%m%dT%H%M%SZ)-$$"
  metrics=$(awk -F'"' '/"name"/ {
      name = $4
      match($0, /"value": [-0-9.eE+]+/)
      val = substr($0, RSTART + 9, RLENGTH - 9)
      printf "%s\"%s\": %s", (n++ ? ", " : ""), name, val
  }' "$file")
  printf '{"run": "%s", "bench": "%s", "rev": "%s", "metrics": {%s}}\n' \
    "$run" "$bench" "$rev" "$metrics" >> BENCH_HISTORY.jsonl
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> process-spawning CLI suites, repeated 3 times (a flake is a bug)"
for _ in 1 2 3; do
  cargo test -q -p resacc-cli --test router --test shard --test replication \
    --test crash_recovery --test cli_integration
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> chaos smoke (seeded faults, graceful drain, zero escaped panics)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"
      [[ -n "${SERVE_PID:-}" ]] && kill "$SERVE_PID" 2>/dev/null
      [[ -n "${REPLICA_PID:-}" ]] && kill "$REPLICA_PID" 2>/dev/null
      [[ -n "${NETFAULT_PID:-}" ]] && kill "$NETFAULT_PID" 2>/dev/null
      [[ -n "${SHARD2_PID:-}" ]] && kill "$SHARD2_PID" 2>/dev/null
      [[ -n "${ROUTER_PID:-}" ]] && kill "$ROUTER_PID" 2>/dev/null
      true' EXIT
awk 'BEGIN { for (u = 0; u < 400; u++) for (d = 1; d <= 5; d++) print u, (u * 31 + d * 97) % 400 }' \
  > "$SMOKE_DIR/graph.txt"
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --workers 2 --chaos panic=10,delay=16:2,seed=42 --dynamic-eps 0.05 \
  > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$SMOKE_DIR/serve.out" 2>/dev/null && break
  sleep 0.1
done
ADDR=$(awk '/listening on/ { print $3 }' "$SMOKE_DIR/serve.out")
[[ -n "$ADDR" ]] || { echo "chaos smoke: server never came up"; cat "$SMOKE_DIR/serve.err"; exit 1; }
# --chaos tolerates the typed fault errors; --shutdown requests a graceful
# drain and fails if the listener lingers. Untyped errors still exit 1.
# The write/delete mix exercises the cache-upgrade path (--dynamic-eps
# above) and delete_node purges under injected faults.
target/release/rwr loadgen --addr "$ADDR" --requests 200 --connections 4 \
  --write-mix 0.15 --delete-mix 0.05 --chaos --shutdown --seed 11
wait "$SERVE_PID"   # graceful drain ⇒ exit 0; an escaped panic ⇒ nonzero
SERVE_PID=
if grep -q "panicked at" "$SMOKE_DIR/serve.err"; then
  echo "chaos smoke: a panic escaped onto the server's stderr:"
  cat "$SMOKE_DIR/serve.err"
  exit 1
fi

echo "==> parallel determinism: query --threads 1 vs --threads 4 bitwise replay"
# Strip the timing header line (wall clock varies); every other byte must
# match — the chunked-stream RNG contract (DESIGN.md §10) makes thread
# count a pure latency knob.
target/release/rwr query --graph "$SMOKE_DIR/graph.txt" --source 3 --seed 7 \
  --threads 1 | tail -n +2 > "$SMOKE_DIR/q1.out"
target/release/rwr query --graph "$SMOKE_DIR/graph.txt" --source 3 --seed 7 \
  --threads 4 | tail -n +2 > "$SMOKE_DIR/q4.out"
if ! cmp -s "$SMOKE_DIR/q1.out" "$SMOKE_DIR/q4.out"; then
  echo "parallel determinism: 1-thread and 4-thread query output diverged:"
  diff "$SMOKE_DIR/q1.out" "$SMOKE_DIR/q4.out" || true
  exit 1
fi

echo "==> bench_parallel smoke (parallel-path and bitwise 1-vs-N gates)"
# WALK_SCALE 4 gives each query ~138k remedy walks, above the one-wave
# threshold of 4 × WAVE_WALKS = 131072 below which 4 threads run serially.
RESACC_BENCH_PARALLEL_QUERIES=2 RESACC_BENCH_PARALLEL_WALK_SCALE=4 \
  target/release/bench_parallel "$SMOKE_DIR/BENCH_parallel.json" > /dev/null

echo "==> recovery smoke (mutate, SIGKILL, restart, bitwise query replay)"
DATA_DIR="$SMOKE_DIR/data"
QUERY='{"id":9,"op":"query","source":3,"seed":77,"full":true}'
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$DATA_DIR" --snapshot-every 0 \
  > "$SMOKE_DIR/serve1.out" 2> "$SMOKE_DIR/serve1.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$SMOKE_DIR/serve1.out" 2>/dev/null && break
  sleep 0.1
done
ADDR=$(awk '/listening on/ { print $3 }' "$SMOKE_DIR/serve1.out")
[[ -n "$ADDR" ]] || { echo "recovery smoke: server never came up"; cat "$SMOKE_DIR/serve1.err"; exit 1; }
HOST=${ADDR%:*}; PORT=${ADDR##*:}
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"id":1,"op":"insert_edges","edges":[[0,399],[5,6]]}\n' >&3
read -t 10 -r ACK1 <&3
printf '{"id":2,"op":"delete_node","node":7}\n' >&3
read -t 10 -r ACK2 <&3
grep -q '"version":2' <<< "$ACK2" || { echo "recovery smoke: mutations not acknowledged: $ACK1 / $ACK2"; exit 1; }
printf '%s\n' "$QUERY" >&3
read -t 10 -r PRE <&3
exec 3>&- 3<&-
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true   # crash: no drain, no checkpoint
SERVE_PID=
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$DATA_DIR" --snapshot-every 0 \
  > "$SMOKE_DIR/serve2.out" 2> "$SMOKE_DIR/serve2.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$SMOKE_DIR/serve2.out" 2>/dev/null && break
  sleep 0.1
done
ADDR=$(awk '/listening on/ { print $3 }' "$SMOKE_DIR/serve2.out")
[[ -n "$ADDR" ]] || { echo "recovery smoke: restart never came up"; cat "$SMOKE_DIR/serve2.err"; exit 1; }
grep -q "# recovered version 2 .* 2 WAL record(s) replayed" "$SMOKE_DIR/serve2.out" || {
  echo "recovery smoke: missing or wrong recovery banner:"; cat "$SMOKE_DIR/serve2.out"; exit 1; }
HOST=${ADDR%:*}; PORT=${ADDR##*:}
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '%s\n' "$QUERY" >&3
read -t 10 -r POST <&3
printf '{"op":"shutdown"}\n' >&3
read -t 10 -r _ <&3 || true
exec 3>&- 3<&-
wait "$SERVE_PID"   # graceful drain writes the shutdown checkpoint
SERVE_PID=
# Strip the one wall-clock field; every other byte (version, top-k, full
# scores) must survive the crash unchanged.
PRE=$(sed 's/"latency_ns":[0-9]*,//' <<< "$PRE")
POST=$(sed 's/"latency_ns":[0-9]*,//' <<< "$POST")
if [[ "$PRE" != "$POST" ]]; then
  echo "recovery smoke: full scores diverged across the crash:"
  echo " pre:  $PRE"
  echo " post: $POST"
  exit 1
fi

echo "==> bench_recovery smoke (zero-loss + torn-tail + group-commit gates)"
# The GC_* knobs shrink the group-commit scenario (write-mix loadgen
# against per-mutation fsync vs batched fsync) to smoke scale; its ≥3×
# WAL-commit-path throughput gate and zero-acked-loss reopen gate still
# run at full strictness.
RESACC_BENCH_RECOVERY_NODES=300 RESACC_BENCH_RECOVERY_MUTATIONS=60 \
RESACC_BENCH_RECOVERY_SNAPSHOT_EVERY=16 \
RESACC_BENCH_RECOVERY_GC_REQUESTS=800 RESACC_BENCH_RECOVERY_GC_CONNECTIONS=16 \
  target/release/bench_recovery "$SMOKE_DIR/BENCH_recovery.json" > /dev/null

echo "==> replication smoke (ship, bitwise replica reads, SIGKILL + promote)"
# Primary with a replication listener; replica shipping from it. The
# replica must answer the probe bit-identically at the same version,
# reject writes with the typed read_only error, and after the primary is
# SIGKILLed, promote to a writable primary with no acknowledged loss.
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/pdata" --replication-listen 127.0.0.1:0 \
  > "$SMOKE_DIR/prim.out" 2> "$SMOKE_DIR/prim.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/prim.out" 2>/dev/null && break
  sleep 0.1
done
P_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/prim.out")
REPL_ADDR=$(awk '/^replication listening on/ { print $4 }' "$SMOKE_DIR/prim.out")
[[ -n "$P_ADDR" && -n "$REPL_ADDR" ]] || {
  echo "replication smoke: primary never came up"; cat "$SMOKE_DIR/prim.err"; exit 1; }
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/rdata" --replicate-from "$REPL_ADDR" \
  > "$SMOKE_DIR/repl.out" 2> "$SMOKE_DIR/repl.err" &
REPLICA_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/repl.out" 2>/dev/null && break
  sleep 0.1
done
R_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/repl.out")
[[ -n "$R_ADDR" ]] || {
  echo "replication smoke: replica never came up"; cat "$SMOKE_DIR/repl.err"; exit 1; }
# Acknowledged history on the primary, probed at version 2.
HOST=${P_ADDR%:*}; PORT=${P_ADDR##*:}
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"id":1,"op":"insert_edges","edges":[[0,399],[5,6]]}\n' >&3
read -t 10 -r _ <&3
printf '{"id":2,"op":"delete_node","node":7}\n' >&3
read -t 10 -r ACK2 <&3
grep -q '"version":2' <<< "$ACK2" || {
  echo "replication smoke: primary did not acknowledge: $ACK2"; exit 1; }
printf '%s\n' "$QUERY" >&3
read -t 10 -r PRIMARY_SCORES <&3
exec 3>&- 3<&-
# Wait for the replica to durably apply both records.
RHOST=${R_ADDR%:*}; RPORT=${R_ADDR##*:}
RSTATS=
for _ in $(seq 1 100); do
  exec 3<>"/dev/tcp/$RHOST/$RPORT"
  printf '{"op":"stats"}\n' >&3
  read -t 10 -r RSTATS <&3
  exec 3>&- 3<&-
  grep -q '"applied_version":2' <<< "$RSTATS" && break
  sleep 0.1
done
grep -q '"applied_version":2' <<< "$RSTATS" || {
  echo "replication smoke: replica never caught up: $RSTATS"; exit 1; }
# Bit-identical reads at the same version; writes bounce with read_only.
exec 3<>"/dev/tcp/$RHOST/$RPORT"
printf '%s\n' "$QUERY" >&3
read -t 10 -r REPLICA_SCORES <&3
printf '{"id":3,"op":"insert_edges","edges":[[1,2]]}\n' >&3
read -t 10 -r BOUNCE <&3
exec 3>&- 3<&-
# Strip the wall-clock field and the result-cache flag (a repeated probe
# at the same version may be served from the cache); every other byte —
# version, top-k, full scores — must match bitwise.
strip_volatile() { sed 's/"latency_ns":[0-9]*,//; s/"cached":[a-z]*,//' <<< "$1"; }
PRIMARY_SCORES=$(strip_volatile "$PRIMARY_SCORES")
REPLICA_SCORES=$(strip_volatile "$REPLICA_SCORES")
if [[ "$PRIMARY_SCORES" != "$REPLICA_SCORES" ]]; then
  echo "replication smoke: replica diverged from primary at version 2:"
  echo " primary: $PRIMARY_SCORES"
  echo " replica: $REPLICA_SCORES"
  exit 1
fi
grep -q '"error":"read_only"' <<< "$BOUNCE" || {
  echo "replication smoke: replica accepted a write: $BOUNCE"; exit 1; }
# Crash the primary (no drain), promote the replica, require zero loss.
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=
target/release/rwr promote --addr "$R_ADDR" | grep -q "at version 2" || {
  echo "replication smoke: promote lost acknowledged history"; exit 1; }
exec 3<>"/dev/tcp/$RHOST/$RPORT"
printf '%s\n' "$QUERY" >&3
read -t 10 -r PROMOTED_SCORES <&3
printf '{"id":4,"op":"insert_edges","edges":[[8,9]]}\n' >&3
read -t 10 -r WRITE_ACK <&3
printf '{"op":"shutdown"}\n' >&3
read -t 10 -r _ <&3 || true
exec 3>&- 3<&-
wait "$REPLICA_PID"
REPLICA_PID=
PROMOTED_SCORES=$(strip_volatile "$PROMOTED_SCORES")
if [[ "$PRIMARY_SCORES" != "$PROMOTED_SCORES" ]]; then
  echo "replication smoke: promoted replica diverged from pre-crash primary:"
  echo " primary:  $PRIMARY_SCORES"
  echo " promoted: $PROMOTED_SCORES"
  exit 1
fi
grep -q '"version":3' <<< "$WRITE_ACK" || {
  echo "replication smoke: promoted replica not writable/monotonic: $WRITE_ACK"; exit 1; }

echo "==> bench_replication smoke (steady-state, catch-up, bit-identity gate)"
RESACC_BENCH_REPL_NODES=300 RESACC_BENCH_REPL_MUTATIONS=120 \
RESACC_BENCH_REPL_SNAPSHOT_EVERY=16 \
  target/release/bench_replication "$SMOKE_DIR/BENCH_replication.json" > /dev/null

echo "==> failover smoke (partition, promote --fence, fenced bounce, heal, bitwise convergence)"
# Old primary P with a replication listener; an `rwr netfault` proxy in
# front of it (stdin-driven partition/heal); replica R shipping through
# the proxy, itself serving a replication listener so the fence probe can
# announce it as the leader P must rejoin.
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/fpdata" --replication-listen 127.0.0.1:0 \
  > "$SMOKE_DIR/fprim.out" 2> "$SMOKE_DIR/fprim.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/fprim.out" 2>/dev/null && break
  sleep 0.1
done
P_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/fprim.out")
P_REPL=$(awk '/^replication listening on/ { print $4 }' "$SMOKE_DIR/fprim.out")
[[ -n "$P_ADDR" && -n "$P_REPL" ]] || {
  echo "failover smoke: primary never came up"; cat "$SMOKE_DIR/fprim.err"; exit 1; }
mkfifo "$SMOKE_DIR/nf.ctl"
target/release/rwr netfault --listen 127.0.0.1:0 --addr "$P_REPL" \
  < "$SMOKE_DIR/nf.ctl" > "$SMOKE_DIR/nf.out" 2>&1 &
NETFAULT_PID=$!
exec 4>"$SMOKE_DIR/nf.ctl"   # hold the control pipe open for the whole smoke
for _ in $(seq 1 100); do
  grep -q "^netfault listening on" "$SMOKE_DIR/nf.out" 2>/dev/null && break
  sleep 0.1
done
NF_ADDR=$(awk '/^netfault listening on/ { print $4 }' "$SMOKE_DIR/nf.out")
[[ -n "$NF_ADDR" ]] || {
  echo "failover smoke: netfault proxy never came up"; cat "$SMOKE_DIR/nf.out"; exit 1; }
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/frdata" --replicate-from "$NF_ADDR" \
  --replication-listen 127.0.0.1:0 \
  > "$SMOKE_DIR/frepl.out" 2> "$SMOKE_DIR/frepl.err" &
REPLICA_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/frepl.out" 2>/dev/null && break
  sleep 0.1
done
R_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/frepl.out")
[[ -n "$R_ADDR" ]] || {
  echo "failover smoke: replica never came up"; cat "$SMOKE_DIR/frepl.err"; exit 1; }
# Acknowledged history through the proxy, applied on the replica.
HOST=${P_ADDR%:*}; PORT=${P_ADDR##*:}
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"id":1,"op":"insert_edges","edges":[[0,399],[5,6]]}\n' >&3
read -t 10 -r _ <&3
printf '{"id":2,"op":"delete_node","node":7}\n' >&3
read -t 10 -r ACK2 <&3
exec 3>&- 3<&-
grep -q '"version":2' <<< "$ACK2" || {
  echo "failover smoke: primary did not acknowledge: $ACK2"; exit 1; }
RHOST=${R_ADDR%:*}; RPORT=${R_ADDR##*:}
RSTATS=
for _ in $(seq 1 100); do
  exec 3<>"/dev/tcp/$RHOST/$RPORT"
  printf '{"op":"stats"}\n' >&3
  read -t 10 -r RSTATS <&3
  exec 3>&- 3<&-
  grep -q '"applied_version":2' <<< "$RSTATS" && break
  sleep 0.1
done
grep -q '"applied_version":2' <<< "$RSTATS" || {
  echo "failover smoke: replica never caught up through the proxy: $RSTATS"; exit 1; }
# Partition the link, then promote the replica. --fence probes the old
# primary's replication listener directly (the data path is dead).
echo partition >&4
target/release/rwr promote --addr "$R_ADDR" --fence "$P_REPL" \
  | grep -q "at version 2, epoch 1" || {
  echo "failover smoke: promote lost history or the epoch"; exit 1; }
# The probe fences the old primary: writes must bounce with the typed
# `fenced` error naming the epoch that displaced it.
FSTATS=
for _ in $(seq 1 100); do
  exec 3<>"/dev/tcp/$HOST/$PORT"
  printf '{"op":"stats"}\n' >&3
  read -t 10 -r FSTATS <&3
  exec 3>&- 3<&-
  grep -q '"fenced":true' <<< "$FSTATS" && break
  sleep 0.1
done
grep -q '"fenced":true' <<< "$FSTATS" || {
  echo "failover smoke: old primary never fenced: $FSTATS"; exit 1; }
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"id":3,"op":"insert_edges","edges":[[1,2]]}\n' >&3
read -t 10 -r FBOUNCE <&3
exec 3>&- 3<&-
grep -q '"error":"fenced"' <<< "$FBOUNCE" || {
  echo "failover smoke: fenced old primary accepted a write: $FBOUNCE"; exit 1; }
grep -q '"current_epoch":1' <<< "$FBOUNCE" || {
  echo "failover smoke: fenced error lacks the epoch: $FBOUNCE"; exit 1; }
# Heal, write on the new leader, and require the old primary (now a
# replica of the new leader) to converge bitwise.
echo heal >&4
exec 3<>"/dev/tcp/$RHOST/$RPORT"
printf '{"id":4,"op":"insert_edges","edges":[[8,9]]}\n' >&3
read -t 10 -r WACK <&3
exec 3>&- 3<&-
grep -q '"version":3' <<< "$WACK" || {
  echo "failover smoke: new leader not writable/monotonic: $WACK"; exit 1; }
PSTATS=
for _ in $(seq 1 100); do
  exec 3<>"/dev/tcp/$HOST/$PORT"
  printf '{"op":"stats"}\n' >&3
  read -t 10 -r PSTATS <&3
  exec 3>&- 3<&-
  grep -q '"applied_version":3' <<< "$PSTATS" && break
  sleep 0.1
done
grep -q '"applied_version":3' <<< "$PSTATS" || {
  echo "failover smoke: old primary never rejoined the new leader: $PSTATS"; exit 1; }
exec 3<>"/dev/tcp/$RHOST/$RPORT"
printf '%s\n' "$QUERY" >&3
read -t 10 -r LEADER_SCORES <&3
printf '{"op":"shutdown"}\n' >&3
read -t 10 -r _ <&3 || true
exec 3>&- 3<&-
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '%s\n' "$QUERY" >&3
read -t 10 -r REJOINED_SCORES <&3
printf '{"op":"shutdown"}\n' >&3
read -t 10 -r _ <&3 || true
exec 3>&- 3<&-
wait "$REPLICA_PID"; REPLICA_PID=
wait "$SERVE_PID"; SERVE_PID=
LEADER_SCORES=$(strip_volatile "$LEADER_SCORES")
REJOINED_SCORES=$(strip_volatile "$REJOINED_SCORES")
if [[ "$LEADER_SCORES" != "$REJOINED_SCORES" ]]; then
  echo "failover smoke: post-heal divergence between leader and rejoined primary:"
  echo " leader:   $LEADER_SCORES"
  echo " rejoined: $REJOINED_SCORES"
  exit 1
fi
echo quit >&4
exec 4>&-
wait "$NETFAULT_PID" 2>/dev/null || true
NETFAULT_PID=

echo "==> bench_failover smoke (fencing, zero-loss, bit-identity gates)"
RESACC_BENCH_FAILOVER_NODES=300 RESACC_BENCH_FAILOVER_MUTATIONS=120 \
RESACC_BENCH_FAILOVER_DIVERGENT=20 RESACC_BENCH_FAILOVER_WINNING=30 \
  target/release/bench_failover "$SMOKE_DIR/BENCH_failover.json" > /dev/null

echo "==> bench_dynamic smoke (hit-rate + error-bound gates)"
RESACC_BENCH_DYNAMIC_NODES=400 RESACC_BENCH_DYNAMIC_REQUESTS=150 \
RESACC_BENCH_DYNAMIC_ROUNDS=8 \
  target/release/bench_dynamic "$SMOKE_DIR/BENCH_dynamic.json" > /dev/null

echo "==> bench_c10k smoke (thread-ceiling + idle-load p99 gates)"
# Shrunk ladder of parked connections against the event-loop backend;
# the hard gates — process threads stay O(workers) from bottom to top
# rung, active-stream p99 does not degrade under idle load — are the
# same ones the full 5 000-connection run enforces.
RESACC_BENCH_C10K_CONNS=50,200,500 RESACC_BENCH_C10K_QUERIES=60 \
RESACC_BENCH_C10K_NODES=500 \
  target/release/bench_c10k "$SMOKE_DIR/BENCH_c10k.json" > /dev/null

echo "==> bench_router smoke (replica-kill, failover zero-loss, hedging gates)"
# bench_router spawns its own rwr cluster (children of the bench); the
# env knobs shrink the streams, the gates stay at full strictness.
RESACC_BENCH_ROUTER_REQUESTS=160 RESACC_BENCH_ROUTER_HEDGE_REQUESTS=200 \
  target/release/bench_router "$SMOKE_DIR/BENCH_router.json" > /dev/null

echo "==> sharding smoke (2 primaries, shard map, isolation, per-shard failover)"
# Shard 1 (tenant t0): primary + replica so it can fail over. Shard 2:
# solo primary hosting the catch-all (default + t1). The router owns the
# shard map; every client request below goes through it unless the assert
# is specifically about which backend a tenant landed on.
req() {  # req <host:port> <json line> — prints the one-line response
  local host=${1%:*} port=${1##*:} resp=
  exec 5<>"/dev/tcp/$host/$port"
  printf '%s\n' "$2" >&5
  read -t 15 -r resp <&5
  exec 5>&- 5<&-
  printf '%s' "$resp"
}
# Applied version of one tenant, via namespaced stats. The anchor class
# [,{] keeps the match off "applied_version".
ns_version() {
  req "$1" "{\"id\":1,\"op\":\"stats\",\"namespace\":\"$2\"}" \
    | grep -o '[,{]"version":[0-9]*' | head -1 | grep -o '[0-9]*$'
}
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/s1p" --replication-listen 127.0.0.1:0 \
  > "$SMOKE_DIR/s1p.out" 2> "$SMOKE_DIR/s1p.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/s1p.out" 2>/dev/null && break
  sleep 0.1
done
S1P_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/s1p.out")
S1P_REPL=$(awk '/^replication listening on/ { print $4 }' "$SMOKE_DIR/s1p.out")
[[ -n "$S1P_ADDR" && -n "$S1P_REPL" ]] || {
  echo "sharding smoke: shard-1 primary never came up"; cat "$SMOKE_DIR/s1p.err"; exit 1; }
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/s1r" --replicate-from "$S1P_REPL" \
  > "$SMOKE_DIR/s1r.out" 2> "$SMOKE_DIR/s1r.err" &
REPLICA_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/s1r.out" 2>/dev/null && break
  sleep 0.1
done
S1R_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/s1r.out")
[[ -n "$S1R_ADDR" ]] || {
  echo "sharding smoke: shard-1 replica never came up"; cat "$SMOKE_DIR/s1r.err"; exit 1; }
target/release/rwr serve --graph "$SMOKE_DIR/graph.txt" --listen 127.0.0.1:0 \
  --data-dir "$SMOKE_DIR/s2p" \
  > "$SMOKE_DIR/s2p.out" 2> "$SMOKE_DIR/s2p.err" &
SHARD2_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/s2p.out" 2>/dev/null && break
  sleep 0.1
done
S2P_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/s2p.out")
[[ -n "$S2P_ADDR" ]] || {
  echo "sharding smoke: shard-2 primary never came up"; cat "$SMOKE_DIR/s2p.err"; exit 1; }
target/release/rwr router --listen 127.0.0.1:0 \
  --shard "t0=$S1P_ADDR,$S1R_ADDR" --shard "*=$S2P_ADDR" \
  --probe-interval-ms 25 --breaker-cooldown-ms 100 --retry-budget 8 \
  --park-ms 8000 --timeout-ms 5000 --sync-ack-timeout-ms 5000 \
  > "$SMOKE_DIR/srouter.out" 2> "$SMOKE_DIR/srouter.err" &
ROUTER_PID=$!
for _ in $(seq 1 100); do
  grep -q "^listening on" "$SMOKE_DIR/srouter.out" 2>/dev/null && break
  sleep 0.1
done
RT_ADDR=$(awk '/^listening on/ { print $3 }' "$SMOKE_DIR/srouter.out")
[[ -n "$RT_ADDR" ]] || {
  echo "sharding smoke: router never came up"; cat "$SMOKE_DIR/srouter.err"; exit 1; }
# Namespace lifecycle routes by the shard map: t0 must land on shard 1's
# primary, t1 on the catch-all, and the router merges the full list.
for ns in t0 t1; do
  CREATED=$(req "$RT_ADDR" "{\"id\":2,\"op\":\"create_namespace\",\"namespace\":\"$ns\"}")
  grep -q '"ok":true' <<< "$CREATED" || {
    echo "sharding smoke: create_namespace $ns failed: $CREATED"; exit 1; }
done
req "$S1P_ADDR" '{"id":3,"op":"list_namespaces"}' | grep -q '"t0"' || {
  echo "sharding smoke: t0 missing from shard 1"; exit 1; }
req "$S2P_ADDR" '{"id":3,"op":"list_namespaces"}' | grep -q '"t1"' || {
  echo "sharding smoke: t1 missing from the catch-all shard"; exit 1; }
MERGED=$(req "$RT_ADDR" '{"id":4,"op":"list_namespaces"}')
for ns in default t0 t1; do
  grep -q "\"$ns\"" <<< "$MERGED" || {
    echo "sharding smoke: router list_namespaces lost $ns: $MERGED"; exit 1; }
done
# A fresh namespace is an empty graph — seed t1 so it has something to
# answer queries from during shard 1's failover.
T1_SEED=$(req "$RT_ADDR" '{"id":4,"op":"insert_edges","namespace":"t1","edges":[[0,1],[1,2],[2,0]]}')
grep -q '"ok":true' <<< "$T1_SEED" || {
  echo "sharding smoke: t1 seed via router failed: $T1_SEED"; exit 1; }
# Cross-tenant isolation: a t0 write must not move t1's applied version.
T1_VER=$(ns_version "$S2P_ADDR" t1)
T0_ACK=$(req "$RT_ADDR" '{"id":5,"op":"insert_edges","namespace":"t0","edges":[[0,199],[5,6]]}')
grep -q '"ok":true' <<< "$T0_ACK" || {
  echo "sharding smoke: t0 write via router failed: $T0_ACK"; exit 1; }
T0_VER=$(grep -o '[,{]"version":[0-9]*' <<< "$T0_ACK" | head -1 | grep -o '[0-9]*$')
[[ "$(ns_version "$S2P_ADDR" t1)" == "$T1_VER" ]] || {
  echo "sharding smoke: a t0 write moved t1's applied version"; exit 1; }
# Shard 1's replica must mirror t0 and apply the acked write before the
# kill — a failover target has to know every tenant it is about to lead.
for _ in $(seq 1 100); do
  req "$S1R_ADDR" '{"id":6,"op":"list_namespaces"}' | grep -q '"t0"' && break
  sleep 0.1
done
req "$S1R_ADDR" '{"id":6,"op":"list_namespaces"}' | grep -q '"t0"' || {
  echo "sharding smoke: replica never mirrored t0"; exit 1; }
for _ in $(seq 1 100); do
  [[ "$(ns_version "$S1R_ADDR" t0)" -ge "$T0_VER" ]] && break
  sleep 0.1
done
[[ "$(ns_version "$S1R_ADDR" t0)" -ge "$T0_VER" ]] || {
  echo "sharding smoke: replica never applied t0's acked write"; exit 1; }
# SIGKILL shard 1's primary: shard 2 must answer t1 uninterrupted while
# shard 1 fails over, and the next t0 write must ack above the pre-kill
# version (no acked write lost, failover stayed shard-local).
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=
for i in 1 2 3; do
  T1_READ=$(req "$RT_ADDR" "{\"id\":1$i,\"op\":\"query\",\"namespace\":\"t1\",\"source\":0,\"seed\":3,\"k\":4}")
  grep -q '"ok":true' <<< "$T1_READ" || {
    echo "sharding smoke: t1 read $i failed during shard-1 failover: $T1_READ"; exit 1; }
done
T0_POST=$(req "$RT_ADDR" '{"id":20,"op":"insert_edges","namespace":"t0","edges":[[6,7]]}')
grep -q '"ok":true' <<< "$T0_POST" || {
  echo "sharding smoke: t0 write after failover failed: $T0_POST"; exit 1; }
POST_VER=$(grep -o '[,{]"version":[0-9]*' <<< "$T0_POST" | head -1 | grep -o '[0-9]*$')
[[ "$POST_VER" -gt "$T0_VER" ]] || {
  echo "sharding smoke: post-failover t0 ack not above $T0_VER: $T0_POST"; exit 1; }
[[ "$(ns_version "$S2P_ADDR" t1)" == "$T1_VER" ]] || {
  echo "sharding smoke: shard-1 failover moved t1's applied version"; exit 1; }
kill "$ROUTER_PID" 2>/dev/null; wait "$ROUTER_PID" 2>/dev/null || true
ROUTER_PID=
kill "$REPLICA_PID" 2>/dev/null; wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=
kill "$SHARD2_PID" 2>/dev/null; wait "$SHARD2_PID" 2>/dev/null || true
SHARD2_PID=

echo "==> bench_shard smoke (scale-out, tenant-isolation, per-shard failover gates)"
# bench_shard spawns its own 2-primary cluster behind a shard router; the
# env knobs shrink the streams, the gates (≥1.8× aggregate mutation
# scale-out under the metered commit device, zero cross-tenant cache
# hits, zero acked loss across a per-shard kill) stay at full strictness.
# The seed pins the deterministic tenant draw to a near-even shard split
# at this scale, so the gate measures scaling rather than split luck.
RESACC_BENCH_SHARD_REQUESTS=200 RESACC_BENCH_SHARD_COMMIT_MS=6 \
RESACC_BENCH_SHARD_PROBES=4 RESACC_BENCH_SHARD_SEED=1 \
  target/release/bench_shard "$SMOKE_DIR/BENCH_shard.json" > /dev/null

echo "==> appending bench results to BENCH_HISTORY.jsonl"
for f in "$SMOKE_DIR"/BENCH_*.json; do
  append_bench_history "$f"
done

echo "==> all checks passed"
