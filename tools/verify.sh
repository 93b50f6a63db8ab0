#!/usr/bin/env bash
# Gating verification: tier-1 test suite plus the ThreadSanitizer pass over
# the parallel engine. Run from the repository root:
#
#   tools/verify.sh [jobs]
#
# 1. Configure + build the default tree and run every `tier1`-labeled test.
# 2. Smoke-test the observability surface: a scripted vql run under
#    --metrics-out/--trace-out, with both artifacts schema-checked by
#    tools/obs_check.
# 3. Crash-recovery smoke: tools/crash_test forks writer children, kills
#    them at deterministically injected fault points, and asserts no
#    fsync-acknowledged statement is ever lost across 25 seeded iterations.
# 4. Deadline smoke: a heavy transitive-closure program under
#    `vql --timeout-ms=1` must fail with a clean "Deadline exceeded" error
#    and exit 4 (the deadline slot of the exit-code taxonomy) — a
#    structured failure, never an abort.
# 5. Resource-governance smoke: a heavy program under `vql
#    --mem-limit-bytes=` must fail with a clean "Resource exhausted" error
#    and the same session must still answer the next (selective) query;
#    tools/governor_test then runs the 250-iteration seeded fault-injection
#    gauntlet and the multi-threaded overload run, asserting
#    submitted == completed + shed with no corrupted state.
# 6. Columnar smoke: a join-heavy scripted vql run under
#    --strategy=fixpoint (merge joins on bound prefixes) and under
#    --strategy=qsqr (hash-index probes only) must print byte-identical
#    answers (the access path never changes an answer), and EXPLAIN
#    ANALYZE must surface the join strategy counters.
# 6a. Planner smoke: the same chain workload run under every forced
#    --strategy= (qsqr, magic, fixpoint) and under auto must print
#    byte-identical answers, --reorder must not change answers, EXPLAIN must
#    show the planner's strategy line (and mark forced choices), and
#    bench_planner's deterministic series must pass its own gates (auto's
#    choices within 5% of the per-query best, >=5x point-lookup speedup vs
#    fixpoint).
# 6b. Self-observation smoke: a workload under `vql --slow-ms=0` must answer
#    a sys_queries goal containing its own earlier query's fingerprint,
#    print slow-log entries via .slowlog, and emit a --slowlog-out JSON
#    that tools/obs_check validates.
# 6c. Shard smoke: a scripted `vql --archive` session writes through two
#    tenants, kills a shard, sees a marked-PARTIAL degraded answer, recovers
#    the shard, sees the full answer again, and lists sys_shards; the
#    --metrics-out snapshot must then contain the per-shard state gauge and
#    the recoveries counter (obs_check --require=).
# 6d. Shard crash gauntlet: tools/crash_test --kill-shard aims injected
#    faults at one shard's files across 25 seeded iterations and asserts
#    fault isolation — unaffected shards byte-identical to a reference
#    replay, the victim a prefix of its acked stream, poisoned journals
#    quarantined to strict-Unavailable / marked-partial answers.
# 6e. Server smoke: vqlsrv serves a seed program; four concurrent
#    `vql --connect=` sessions must all get their answers; remote exit codes
#    must distinguish a parse error (2) from success (0); `obs_check server`
#    validates the live /healthz schema and that /metrics?dump= serves bytes
#    identical to the file it writes; SIGTERM must drain with
#    "dropped=0" in the ledger line and flush the --metrics-out snapshot.
#    Then the archive server smoke: a 2-shard archive populated with
#    `vql --archive` is served by `vqlsrv --archive=`, the rule is installed
#    over the wire, four concurrent clients each ask one tenant's lookup
#    twice and must get `vql --archive`'s local answer byte for byte,
#    /metrics must count IO-thread answers (vqldb_server_inline_hits_total
#    > 0), and SIGTERM must drain with "dropped=0".
#    Then tools/server_chaos runs at smoke scale (the full 10k-connection /
#    250-iteration run writes BENCH_server.json out-of-band).
# 7. Configure + build with -DVQLDB_SANITIZE=address and run the governance,
#    dictionary, columnar, shard, planner/QSQR and differential-oracle tests
#    under ASan (the budget hierarchy moves ownership across queries,
#    caches, and rollbacks; the dictionary arena and segment seal/merge
#    paths juggle raw pointers; shard recovery tears down and rebuilds
#    per-shard databases — exactly where lifetime bugs would live).
# 8. Configure + build with -DVQLDB_SANITIZE=thread and run the fixpoint
#    determinism test, the thread-pool tests, the admission-gate stress
#    test, the dictionary/columnar tests (lock-free Get, concurrent
#    interning, parallel seal digests), the shard-store and archive-merge
#    tests (parallel per-shard recovery, concurrent scatters, writes and
#    kill/recover with no archive-wide lock, cache-only lookups), the
#    strategy-equivalence property suite's parallel mode, the
#    differential oracle's 8-thread cases (parallel rule tasks read the
#    database's temporal index, including over intervals added since the
#    previous query), and the server, snapshot and query-cache tests (every
#    session of a generation reads one database copy and one answer cache,
#    and the IO threads answer cached reads from them too) under TSan. CI's
#    `tsan` job runs that server section and the two archive tests.
# 9. Configure + build with -DVQLDB_SANITIZE=undefined and run the QSQR,
#    differential-oracle, strategy and magic-set property, answer-cache,
#    rendered-answer, parser-fuzz, archive (shard merge offset arithmetic),
#    interpretation and columnar (bit-63 probe masks, wide rows, sorted
#    probe offsets) tests under UBSan with halt_on_error=1, so any
#    undefined-behaviour report fails the gate.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== tier-1: ctest -L tier1 =="
ctest --test-dir build -L tier1 --output-on-failure

echo "== observability smoke: vql --metrics-out/--trace-out + obs_check =="
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./build/tools/vql --threads 2 \
    --metrics-out="$OBS_TMP/metrics.json" \
    --trace-out="$OBS_TMP/trace.json" >"$OBS_TMP/shell.out" <<'EOF'
object o1 { name: "David" }.
object o2 { name: "Philip" }.
interval gi1 { duration: (t > 0 and t < 10), entities: {o1, o2} }.
interval gi2 { duration: (t > 2 and t < 8), entities: {o2} }.
appears(O, G) <- Interval(G), Object(O), O in G.entities.
contains(G1, G2) <- Interval(G1), Interval(G2), G2.duration => G1.duration, G1 != G2.
nested(G1, G2) <- contains(G1, G2).
nested(G1, G3) <- nested(G1, G2), contains(G2, G3).
explain analyze ?- contains(G1, G2).
explain analyze ?- nested(G1, G2).
.quit
EOF
# contains/2 has a non-recursive cone, so it runs top-down (QSQR: one pass,
# no round profile); nested/2 is recursive and runs bottom-up (magic sets).
grep -q "strategy: qsqr (non-recursive cone)" "$OBS_TMP/shell.out" \
  && grep -q "^stats: 1 passes, " "$OBS_TMP/shell.out" \
  || { echo "EXPLAIN ANALYZE of contains/2 is missing its QSQR stats line"; exit 1; }
grep -q "per rule:" "$OBS_TMP/shell.out" \
  || { echo "EXPLAIN ANALYZE of nested/2 is missing its profile table"; exit 1; }
./build/tools/obs_check metrics "$OBS_TMP/metrics.json"
./build/tools/obs_check trace "$OBS_TMP/trace.json"

echo "== crash-recovery smoke: crash_test --iterations=25 --seed=1 =="
./build/tools/crash_test --iterations=25 --seed=1 --dir="$OBS_TMP/crash"

echo "== deadline smoke: vql --timeout-ms=1 on a heavy program =="
{
  for i in $(seq 0 400); do echo "object n$i { }."; done
  for i in $(seq 0 399); do echo "edge(n$i, n$((i+1)))."; done
  echo "path(X, Y) <- edge(X, Y)."
  echo "path(X, Z) <- path(X, Y), edge(Y, Z)."
  echo "?- path(X, Y)."
  echo ".quit"
} > "$OBS_TMP/heavy.vql"
deadline_rc=0
./build/tools/vql --timeout-ms=1 <"$OBS_TMP/heavy.vql" >"$OBS_TMP/deadline.out" \
  || deadline_rc=$?
grep -q "Deadline exceeded" "$OBS_TMP/deadline.out" \
  || { echo "expected a structured Deadline exceeded error"; exit 1; }
[ "$deadline_rc" -eq 4 ] \
  || { echo "expected deadline exit code 4, got $deadline_rc"; exit 1; }

echo "== magic smoke: selective query answers identical with --strategy=fixpoint =="
{
  for i in $(seq 0 60); do echo "object n$i { }."; done
  for i in $(seq 0 59); do echo "edge(n$i, n$((i+1)))."; done
  echo "path(X, Y) <- edge(X, Y)."
  echo "path(X, Z) <- path(X, Y), edge(Y, Z)."
  echo "?- path(n55, Y)."
  echo "?- path(X, n3)."
  echo ".quit"
} > "$OBS_TMP/magic.vql"
./build/tools/vql <"$OBS_TMP/magic.vql" >"$OBS_TMP/magic_on.out"
./build/tools/vql --strategy=fixpoint --no-cache <"$OBS_TMP/magic.vql" >"$OBS_TMP/magic_off.out"
diff "$OBS_TMP/magic_on.out" "$OBS_TMP/magic_off.out" \
  || { echo "goal-directed answers diverge from the full fixpoint"; exit 1; }
grep -q "magic: on" <(./build/tools/vql \
    <<< $'object a { }.\nobject b { }.\ne(a, b).\np(X, Y) <- e(X, Y).\np(X, Z) <- p(X, Y), e(Y, Z).\nexplain ?- p(a, Y).\n.quit') \
  || { echo "EXPLAIN of a recursive goal is missing the magic status line"; exit 1; }

echo "== planner smoke: answers byte-identical across --strategy= =="
{
  for i in $(seq 0 60); do echo "object n$i { }."; done
  for i in $(seq 0 59); do echo "edge(n$i, n$((i+1)))."; done
  echo "path(X, Y) <- edge(X, Y)."
  echo "path(X, Z) <- path(X, Y), edge(Y, Z)."
  echo "?- path(n55, Y)."
  echo "?- path(X, n3)."
  echo "?- path(X, Y)."
  echo ".quit"
} > "$OBS_TMP/strategy.vql"
for s in qsqr magic fixpoint auto; do
  ./build/tools/vql --no-cache --strategy="$s" <"$OBS_TMP/strategy.vql" \
      >"$OBS_TMP/strategy_$s.out"
done
for s in magic fixpoint auto; do
  diff "$OBS_TMP/strategy_qsqr.out" "$OBS_TMP/strategy_$s.out" \
    || { echo "--strategy=$s answers diverge from --strategy=qsqr"; exit 1; }
done
./build/tools/vql --no-cache --reorder <"$OBS_TMP/strategy.vql" \
    >"$OBS_TMP/strategy_reorder.out"
diff "$OBS_TMP/strategy_qsqr.out" "$OBS_TMP/strategy_reorder.out" \
  || { echo "--reorder answers diverge from the written order"; exit 1; }
grep -q "strategy: " <(./build/tools/vql \
    <<< $'object a { }.\nobject b { }.\ne(a, b).\np(X, Y) <- e(X, Y).\nexplain ?- p(a, Y).\n.quit') \
  || { echo "EXPLAIN is missing the planner strategy line"; exit 1; }
grep -q "strategy: fixpoint (forced" <(./build/tools/vql --strategy=fixpoint \
    <<< $'object a { }.\nobject b { }.\ne(a, b).\np(X, Y) <- e(X, Y).\nexplain ?- p(a, Y).\n.quit') \
  || { echo "EXPLAIN does not mark a forced strategy"; exit 1; }

echo "== planner bench gate: bench_planner series (auto's choices within 5% of best) =="
(cd "$OBS_TMP" && "$OLDPWD/build/bench/bench_planner" >/dev/null)

echo "== columnar smoke: merge-join fixpoint answers identical to QSQR's hash probes =="
{
  for i in $(seq 0 40); do echo "object n$i { }."; done
  for i in $(seq 0 39); do echo "edge(n$i, n$(((i*7+3) % 41)))."; done
  for i in $(seq 0 39); do echo "edge(n$i, n$(((i+1) % 41)))."; done
  echo "tri(X, Y, Z) <- edge(X, Y), edge(Y, Z), edge(Z, X)."
  echo "wedge(X, Z) <- edge(X, Y), edge(Y, Z)."
  echo "?- tri(X, Y, Z)."
  echo "?- wedge(n5, Z)."
  echo ".quit"
} > "$OBS_TMP/columnar.vql"
./build/tools/vql --strategy=fixpoint --no-cache <"$OBS_TMP/columnar.vql" \
    >"$OBS_TMP/columnar_merge.out"
./build/tools/vql --strategy=qsqr --no-cache <"$OBS_TMP/columnar.vql" \
    >"$OBS_TMP/columnar_hash.out"
diff "$OBS_TMP/columnar_merge.out" "$OBS_TMP/columnar_hash.out" \
  || { echo "merge-join fixpoint answers diverge from QSQR's hash probes"; exit 1; }
grep -q "join strategy:" <(./build/tools/vql \
    <<< $'object a { }.\nobject b { }.\ne(a, b).\np(X, Y) <- e(X, Y).\nexplain analyze ?- p(X, Y).\n.quit') \
  || { echo "EXPLAIN ANALYZE is missing the join strategy line"; exit 1; }

echo "== self-observation smoke: sys_queries + .slowlog + obs_check slowlog =="
{
  for i in $(seq 0 20); do echo "object n$i { }."; done
  for i in $(seq 0 19); do echo "edge(n$i, n$((i+1)))."; done
  echo "path(X, Y) <- edge(X, Y)."
  echo "path(X, Z) <- path(X, Y), edge(Y, Z)."
  echo "?- path(X, Y)."
  echo "?- path(X, Y)."
  echo "?- sys_queries(F, C, P50, P99, R, S)."
  echo ".slowlog 5"
  echo ".quit"
} > "$OBS_TMP/selfobs.vql"
./build/tools/vql --slow-ms=0 --slowlog-out="$OBS_TMP/slowlog.json" \
    <"$OBS_TMP/selfobs.vql" >"$OBS_TMP/selfobs.out"
grep -qF 'path($0, $1)' "$OBS_TMP/selfobs.out" \
  || { echo "sys_queries did not report the workload's own fingerprint"; exit 1; }
grep -q "slow-query log" "$OBS_TMP/selfobs.out" \
  || { echo ".slowlog printed no slow-query entries"; exit 1; }
./build/tools/obs_check slowlog "$OBS_TMP/slowlog.json"

echo "== shard smoke: kill a shard mid-session, degrade, recover =="
./build/tools/vql --archive="$OBS_TMP/shardarc" --archive-shards=2 \
    --metrics-out="$OBS_TMP/shard_metrics.json" \
    >"$OBS_TMP/shard.out" 2>&1 <<'EOF'
.tenant alice
object a1 { }.
tagged(a1).
.tenant bob
object b1 { }.
tagged(b1).
?- tagged(X).
.shard kill 0
.partial on
?- tagged(X).
.shard recover 0
.partial off
?- tagged(X).
?- sys_shards(S, St, F, R, D, Rec, E).
.shards
.quit
EOF
grep -q "PARTIAL" "$OBS_TMP/shard.out" \
  || { echo "degraded query was not marked PARTIAL"; exit 1; }
grep -q "shard 0 recovered" "$OBS_TMP/shard.out" \
  || { echo ".shard recover did not restore the killed shard"; exit 1; }
grep -q "healthy" "$OBS_TMP/shard.out" \
  || { echo "sys_shards/.shards reported no healthy shard"; exit 1; }
./build/tools/obs_check metrics "$OBS_TMP/shard_metrics.json" \
    --require=vqldb_shard_state_0 --require=vqldb_shard_state_1 \
    --require=vqldb_shard_recoveries_total

echo "== shard crash gauntlet: crash_test --kill-shard --iterations=25 =="
./build/tools/crash_test --kill-shard --iterations=25 --seed=1 --shards=3 \
    --dir="$OBS_TMP/ks"

echo "== governance smoke: vql --mem-limit-bytes= on a heavy program =="
{
  for i in $(seq 0 64); do echo "object n$i { }."; done
  for i in $(seq 0 63); do echo "edge(n$i, n$((i+1)))."; done
  echo "path(X, Y) <- edge(X, Y)."
  echo "path(X, Z) <- path(X, Y), edge(Y, Z)."
  echo "?- path(X, Y)."
  echo "?- edge(n0, Y)."
  echo ".quit"
} > "$OBS_TMP/governed.vql"
governed_rc=0
./build/tools/vql --mem-limit-bytes=60000 <"$OBS_TMP/governed.vql" \
    >"$OBS_TMP/governed.out" || governed_rc=$?
grep -q "Resource exhausted" "$OBS_TMP/governed.out" \
  || { echo "expected a structured Resource exhausted error"; exit 1; }
[ "$governed_rc" -eq 1 ] \
  || { echo "expected resource-exhausted exit code 1, got $governed_rc"; exit 1; }
grep -q "n1" "$OBS_TMP/governed.out" \
  || { echo "session did not answer the follow-up query after the trip"; exit 1; }

echo "== governance gauntlet: governor_test --iterations=250 =="
./build/tools/governor_test --iterations=250 --seed=1

echo "== overload smoke: governor_test --overload =="
./build/tools/governor_test --overload --threads=4 --per-thread=8

echo "== server smoke: vqlsrv start, concurrent clients, SIGTERM drain =="
{
  for i in $(seq 0 16); do echo "object s$i { }."; done
  for i in $(seq 0 15); do echo "e(s$i, s$((i+1)))."; done
  echo "p(X, Y) <- e(X, Y)."
} > "$OBS_TMP/served.vql"
./build/tools/vqlsrv "$OBS_TMP/served.vql" --admin \
    --metrics-out="$OBS_TMP/server_metrics.json" \
    >"$OBS_TMP/server.out" 2>&1 &
SRV_PID=$!
for i in $(seq 1 50); do
  SRV_PORT="$(sed -n 's/.*listening on 127.0.0.1://p' "$OBS_TMP/server.out")"
  [ -n "$SRV_PORT" ] && break
  sleep 0.1
done
[ -n "$SRV_PORT" ] || { echo "vqlsrv did not report a port"; exit 1; }

# Concurrent remote sessions: every query must be answered.
for c in 1 2 3 4; do
  printf '?- p(X, Y).\n.quit\n' \
    | ./build/tools/vql --connect="127.0.0.1:$SRV_PORT" \
    > "$OBS_TMP/client$c.out" &
done
wait $(jobs -p | grep -v "^$SRV_PID$") 2>/dev/null || true
for c in 1 2 3 4; do
  grep -q "s0, s1" "$OBS_TMP/client$c.out" \
    || { echo "remote client $c did not get its answer"; exit 1; }
done

# Exit-code taxonomy over the wire: parse error must exit 2, success 0.
printf '?- p(X.\n.quit\n' \
  | ./build/tools/vql --connect="127.0.0.1:$SRV_PORT" >/dev/null 2>&1 \
  && { echo "remote parse error must not exit 0"; exit 1; } \
  || [ $? -eq 2 ] || { echo "remote parse error must exit 2"; exit 1; }
printf '?- p(X, Y).\n.quit\n' \
  | ./build/tools/vql --connect="127.0.0.1:$SRV_PORT" >/dev/null \
  || { echo "remote success must exit 0"; exit 1; }

# Live /healthz schema + /metrics?dump= byte-identity.
./build/tools/obs_check server "127.0.0.1:$SRV_PORT" \
    --dump="$OBS_TMP/server_dump.prom"

# Graceful drain: SIGTERM, in-flight work finishes, ledger balances, and
# the metrics snapshot flushes on the way out.
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "vqlsrv did not exit 0 after SIGTERM"; exit 1; }
grep -q "drain complete: .*dropped=0" "$OBS_TMP/server.out" \
  || { echo "drain dropped admitted requests"; cat "$OBS_TMP/server.out"; exit 1; }
./build/tools/obs_check metrics "$OBS_TMP/server_metrics.json" \
    --require=vqldb_server_requests_total \
    --require=vqldb_server_admitted_dropped_total

echo "== archive server smoke: vqlsrv --archive, cached lookups on the IO thread =="
./build/tools/vql --archive="$OBS_TMP/srvarc" --archive-shards=2 \
    >/dev/null 2>&1 <<'EOF'
.tenant alice
object a1 { }.
object a2 { }.
object a3 { }.
seg(a1, a2).
seg(a1, a3).
.tenant bob
object b1 { }.
object b2 { }.
seg(b1, b2).
.quit
EOF
# Rules are not journaled: each process installs its own. The local
# answers drop the rule's "ok" line.
LOOKUPS=("?- near(a1, Y)." "?- near(b1, Y).")
for g in 0 1; do
  printf 'near(X, Y) <- seg(X, Y).\n%s\n.quit\n' "${LOOKUPS[$g]}" \
    | ./build/tools/vql --archive="$OBS_TMP/srvarc" 2>/dev/null \
    | tail -n +2 > "$OBS_TMP/archive_local$g.out"
  grep -q "^([0-9]* answers\?)" "$OBS_TMP/archive_local$g.out" \
    || { echo "local archive lookup ${LOOKUPS[$g]} failed"; exit 1; }
done
./build/tools/vqlsrv --archive="$OBS_TMP/srvarc" --admin \
    >"$OBS_TMP/archive_server.out" 2>&1 &
ARC_PID=$!
ARC_PORT=""
for i in $(seq 1 50); do
  ARC_PORT="$(sed -n 's/.*listening on 127.0.0.1://p' "$OBS_TMP/archive_server.out")"
  [ -n "$ARC_PORT" ] && break
  sleep 0.1
done
[ -n "$ARC_PORT" ] || { echo "vqlsrv --archive did not report a port"; exit 1; }
printf 'near(X, Y) <- seg(X, Y).\n.quit\n' \
  | ./build/tools/vql --connect="127.0.0.1:$ARC_PORT" \
    >"$OBS_TMP/archive_rule.out" 2>/dev/null
grep -q "^ok" "$OBS_TMP/archive_rule.out" \
  || { echo "rule install over the wire failed"; exit 1; }
# Four concurrent clients each ask one tenant's lookup twice: the first ask
# of each goal fills its shard's cache on a worker, the repeats are
# answered on the IO thread, and every answer is the local one.
ARC_CLIENTS=()
for c in 1 2 3 4; do
  printf '%s\n%s\n.quit\n' "${LOOKUPS[$((c % 2))]}" "${LOOKUPS[$((c % 2))]}" \
    | ./build/tools/vql --connect="127.0.0.1:$ARC_PORT" 2>/dev/null \
    > "$OBS_TMP/archive_client$c.out" &
  ARC_CLIENTS+=($!)
done
wait "${ARC_CLIENTS[@]}"
for c in 1 2 3 4; do
  cat "$OBS_TMP/archive_local$((c % 2)).out" "$OBS_TMP/archive_local$((c % 2)).out" \
    | diff - "$OBS_TMP/archive_client$c.out" \
    || { echo "archive client $c answers differ from vql --archive"; exit 1; }
done
exec 3<>"/dev/tcp/127.0.0.1/$ARC_PORT"
printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n' >&3
ARC_INLINE="$(sed -n 's/^vqldb_server_inline_hits_total \([0-9]*\).*/\1/p' <&3)"
exec 3<&-
[ "${ARC_INLINE:-0}" -gt 0 ] \
  || { echo "no archive lookup was answered on the IO thread"; exit 1; }
kill -TERM "$ARC_PID"
wait "$ARC_PID" || { echo "vqlsrv --archive did not exit 0 after SIGTERM"; exit 1; }
grep -q "drain complete: .*dropped=0" "$OBS_TMP/archive_server.out" \
  || { echo "archive drain dropped admitted requests"; cat "$OBS_TMP/archive_server.out"; exit 1; }

echo "== server chaos (smoke scale): 300 connections, 40 iterations =="
./build/tools/server_chaos --connections=300 --iterations=40 --seed=11 \
    --out="$OBS_TMP/bench_server_smoke.json"

echo "== asan: build (-DVQLDB_SANITIZE=address) =="
cmake -B build-asan -S . -DVQLDB_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target budget_test query_gate_test resource_governor_test \
           term_dict_test columnar_test columnar_accounting_test \
           backoff_test shard_manifest_test shard_store_test \
           qsqr_test planner_test wire_test http_test snapshot_test \
           server_test differential_oracle_test query_cache_test \
           rendered_query_test archive_merge_test

echo "== asan: budget + gate + governor + dictionary + columnar + shards + planner + oracle =="
./build-asan/tests/budget_test
./build-asan/tests/query_gate_test
./build-asan/tests/resource_governor_test
./build-asan/tests/term_dict_test
./build-asan/tests/columnar_test
./build-asan/tests/columnar_accounting_test
./build-asan/tests/backoff_test
./build-asan/tests/shard_manifest_test
./build-asan/tests/shard_store_test
./build-asan/tests/archive_merge_test
./build-asan/tests/qsqr_test
./build-asan/tests/planner_test
./build-asan/tests/differential_oracle_test

echo "== asan: answer cache + rendered answers (cells are views into cached buffers) =="
./build-asan/tests/query_cache_test
./build-asan/tests/rendered_query_test

echo "== asan: server protocol + end-to-end (framing, sessions, drain) =="
./build-asan/tests/wire_test
./build-asan/tests/http_test
./build-asan/tests/snapshot_test
./build-asan/tests/server_test

echo "== tsan: build (-DVQLDB_SANITIZE=thread) =="
cmake -B build-tsan -S . -DVQLDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target parallel_determinism_test thread_pool_test gate_stress_test \
           term_dict_test columnar_test stats_test shard_store_test \
           strategy_property_test server_test snapshot_isolation_test \
           snapshot_test query_cache_test differential_oracle_test \
           rendered_query_test archive_merge_test

echo "== tsan: parallel determinism + thread pool + gate stress + columnar + shards + strategies + oracle =="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_determinism_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/gate_stress_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/term_dict_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/columnar_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/stats_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/shard_store_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/archive_merge_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/strategy_property_test \
    --gtest_filter='*Parallel*'
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/differential_oracle_test \
    --gtest_filter='*Parallel*'

echo "== tsan: server connection handling + snapshot isolation + shared generations =="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/server_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/snapshot_isolation_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/snapshot_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/query_cache_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/rendered_query_test

echo "== ubsan: build (-DVQLDB_SANITIZE=undefined) =="
UBSAN_TESTS=(qsqr_test differential_oracle_test strategy_property_test
             magic_sets_property_test planner_test query_cache_test
             rendered_query_test parser_fuzz_test archive_merge_test
             shard_store_test interpretation_test columnar_test)
cmake -B build-ubsan -S . -DVQLDB_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS" --target "${UBSAN_TESTS[@]}"

echo "== ubsan: qsqr + oracle + strategies + magic sets + dispatch + caches + parser fuzz + archive merge + columnar probes =="
for t in "${UBSAN_TESTS[@]}"; do
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" "./build-ubsan/tests/$t"
done

echo "verify: OK"
