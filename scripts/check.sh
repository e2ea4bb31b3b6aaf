#!/usr/bin/env bash
# Tier-1 verification: the standard build + the tier1-labeled ctest suite,
# then a ThreadSanitizer build that race-checks the concurrent paths — the
# query-serving layer (serve::ResolutionService and friends) and the
# parallel resolve pipeline's determinism harness
# (tests/determinism_test.cc) — then an Address+UndefinedBehaviorSanitizer
# build over the feature path: the columnar comparison corpus is all raw
# span arithmetic into CSR arrays, so the feature/equivalence/golden/
# determinism suites run under ASan+UBSan to pin down any out-of-bounds
# view or UB the byte-identity tests alone would miss.
#
# Both sanitizer stages also run the fault-injection suites (the chaos
# harness plus the robustness units): concurrent queries with faults armed
# at every registered point are exactly where a race or lifetime bug in
# the failure paths would hide.
#
# The TSan stage ends with a loopback serving smoke: a TSan-built
# `yver_cli serve --live` (hardened with the DESIGN.md §15 defense knobs)
# on an ephemeral port, a recorded loadgen workload, and two replays whose
# response hashes must reproduce the recorded one — the wire determinism
# contract exercised end to end over real sockets. An adversarial smoke
# follows: slow-loris and never-read fleets (`loadgen --adversary`)
# attack the same server while a third replay runs beside them; the
# replay must still reproduce the recorded hash and the server must
# forcibly close every adversary connection. Then a live-append step:
# fresh reports streamed in with `yver_cli append --verify`, which must
# see the served generation advance and the appended record answer
# queries. A
# crash-recovery smoke follows: a WAL-backed `serve --live --wal-dir` is
# SIGKILLed mid-append-stream, restarted on the same directory, and every
# previously acked record must answer (`append --verify-from 0`).
#
# Right after tier-1, the standard-build `yver_cli` must refuse malformed
# numeric flags with exit 2 before it loads or binds anything.
#
# A multicore stress stage follows tier-1: the concurrency suites, the
# ADTree trainer suites, the miner equivalence suite and the blocking
# primitives (the dynamically scheduled ThreadPool::ParallelFor, batched
# bitset supports, MfiBlocks and its bound-pruned scoring against the
# score-everything reference) run 20 times in shuffled order on the
# standard build. It exists for bugs no sanitizer reports and that show
# only under repeated runs on several cores. For the live index it guards
# the pin/publish contract of DESIGN.md §13: each reader sees
# non-decreasing generations, a publish never waits for a reader, and
# every retired snapshot is freed once its pins drain.
#
#   scripts/check.sh            # all stages
#   scripts/check.sh --no-tsan  # skip the TSan stage
#   scripts/check.sh --no-asan  # skip the ASan+UBSan stage
#
# The slow-labeled large-corpus tests are not gated here; run them with
#   ctest --test-dir build -L slow --output-on-failure
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> tier-1: standard build + ctest (-L tier1)"
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build -L tier1 --output-on-failure -j "$(nproc)"

echo "==> tier-1: malformed numeric flags exit 2 (yver_cli)"
# A negative count, a port past 65535 and a number that does not parse
# are refused by the flag parser; each would otherwise fail later, at the
# missing corpus or the closed port, with exit 1.
for args in "serve --in missing.csv --threads -1" \
            "serve --in missing.csv --port 70000" \
            "loadgen --port 1 --queries abc"; do
  rc=0
  ./build/tools/yver_cli $args 2>/dev/null || rc=$?
  [[ "$rc" == 2 ]] || { echo "yver_cli $args exited $rc, want 2" >&2; exit 1; }
done

echo "==> tier-1: stress (concurrency + trainer + miner + blocking suites, repeated and shuffled, nproc=$(nproc))"
./build/tests/yver_tests --gtest_repeat=20 --gtest_shuffle --gtest_brief=1 \
    --gtest_filter='IndexManager*:ServicePublish*:Chaos*:Wal*:*Net*:Determinism*:AdTreeTrainerTest*:ThreeClassTest*:AdTreeEquivalence*:MinerEquivalence*:ThreadPool*:*MfiBlocks*:InvertedIndex*:ScoreBound*:BoundedThreshold*:*ReferenceMfiBlocks*'

if [[ "$run_tsan" == 1 ]]; then
  echo "==> tier-1: ThreadSanitizer race check (serve layer + pipeline/blocking determinism)"
  cmake -B build-tsan -S . -DYVER_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target yver_tests
  # Determinism* covers the blocking thread matrix and the parallel
  # per-rank miner; MfiBlocks*/ThreadPool* add the direct blocking and
  # chunked-merge primitives; ChaosTest*/the robustness suites drive the
  # failure model (deadlines, shedding, fault injection) concurrently.
  # Wire*/Net* add the TCP front end: the epoll loop, dispatchers, and
  # loadgen threads all share connection state, so the loopback
  # integration and socket-fault chaos suites run race-checked too.
  # IndexManager*/LiveIndexBuilder* are the live-update layer (DESIGN.md
  # §13): the snapshot swap and the ingest builder are exactly the code
  # TSan exists for — readers pin generations while a writer publishes —
  # and ChaosTest.SwapUnderLoad* drives the full swap-under-load
  # consistency proof race-checked.
  # Wal* is the durability layer (DESIGN.md §14): group-commit batching
  # means concurrent appenders hand frames to a leader thread, so the
  # WAL unit and WAL-backed ingest suites run race-checked as well.
  # AdTreeTrainerTest*/ThreeClassTest*/AdTreeEquivalence* train on pools
  # of 1, 2 and 8 workers: each (node, feature) task writes its own slot
  # while reading the shared weights and columns (DESIGN.md §7).
  # FpGrowth*/FpTree*/MinerEquivalence* mine on pools of 1, 2 and 8: the
  # per-rank tasks read the shared arena tree, and the maximality filter
  # reads every candidate while each task writes its own keep slot
  # (DESIGN.md §9). InvertedIndex*/MinThreshold* cover the batched bitset
  # support recount and the chunked sparse-neighborhood scan;
  # ScoreBound*/BoundedThreshold*/*ReferenceMfiBlocks* the bound-pruned
  # scoring, whose tasks write shared score and scored-flag slots and read
  # a per-thread mark array, against the score-everything reference.
  ./build-tsan/tests/yver_tests --gtest_filter='*Serve*:*Service*:ShardedQueryCache*:*ResolutionIndex*:StatusTest*:Determinism*:GoldenPipeline*:*MfiBlocks*:*ThreadPool*:ChaosTest*:AdmissionController*:FaultInjector*:RetryTest*:DeadlineTest*:*Wire*:*Net*:CaptureFile*:IndexManager*:LiveIndexBuilder*:Wal*:Gazetteer*:AdTreeTrainerTest*:ThreeClassTest*:AdTreeEquivalence*:FpGrowth*:FpTree*:MinerEquivalence*:InvertedIndex*:MinThreshold*:ScoreBound*:BoundedThreshold*:*ReferenceMfiBlocks*'

  echo "==> tier-1: loopback serve/loadgen smoke (TSan binaries, record/replay)"
  # End-to-end over a real socket: a TSan-built server on an ephemeral
  # port, a recorded workload, and two replays that must reproduce the
  # recorded response hash bit-for-bit.
  cmake --build build-tsan -j "$(nproc)" --target yver_cli
  smoke_dir="$(mktemp -d)"
  trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$smoke_dir"' EXIT
  ./build-tsan/tools/yver_cli generate --persons 400 --out "$smoke_dir/data.csv" --seed 7 >/dev/null
  ./build-tsan/tools/yver_cli resolve --in "$smoke_dir/data.csv" --out "$smoke_dir/matches.csv" >/dev/null 2>&1
  ./build-tsan/tools/yver_cli index --in "$smoke_dir/data.csv" --matches "$smoke_dir/matches.csv" --out "$smoke_dir/idx.yvx" >/dev/null
  # Hardened serve (DESIGN.md §15): tight slow-loris and slow-reader
  # knobs so the adversarial smoke below trips them in seconds, while
  # well-behaved loadgen traffic never notices.
  ./build-tsan/tools/yver_cli serve --in "$smoke_dir/data.csv" --index "$smoke_dir/idx.yvx" \
      --live --port-file "$smoke_dir/port" --dispatch-threads 2 \
      --min-read-rate 256 --progress-window-ms 1000 \
      --max-out-buffer 65536 --sndbuf 65536 \
      --write-stall-timeout-ms 2000 >"$smoke_dir/serve.log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 1 200); do [[ -s "$smoke_dir/port" ]] && break; sleep 0.05; done
  [[ -s "$smoke_dir/port" ]] || { echo "serve never wrote its port file" >&2; cat "$smoke_dir/serve.log" >&2; exit 1; }
  port="$(cat "$smoke_dir/port")"
  hash_of() { sed -n 's/.*"response_hash": "\([0-9a-f]*\)".*/\1/p' "$1"; }
  ./build-tsan/tools/yver_cli loadgen --port "$port" --queries 1000 --connections 3 \
      --record "$smoke_dir/cap.yvr" --json >"$smoke_dir/rec.json"
  ./build-tsan/tools/yver_cli loadgen --port "$port" --replay "$smoke_dir/cap.yvr" \
      --connections 3 --json >"$smoke_dir/rep1.json"
  ./build-tsan/tools/yver_cli loadgen --port "$port" --replay "$smoke_dir/cap.yvr" \
      --connections 3 --json >"$smoke_dir/rep2.json"
  h0="$(hash_of "$smoke_dir/rec.json")"; h1="$(hash_of "$smoke_dir/rep1.json")"; h2="$(hash_of "$smoke_dir/rep2.json")"
  [[ -n "$h0" && "$h0" == "$h1" && "$h1" == "$h2" ]] || {
    echo "loopback replay hash diverged: $h0 $h1 $h2" >&2; exit 1; }

  echo "==> tier-1: adversarial smoke (slowloris + never-read vs the hardened TSan server)"
  # Hostile-network liveness (DESIGN.md §15): slow-loris and never-read
  # fleets attack the server while a third replay of the same capture runs
  # beside them — the replay must still reproduce the recorded hash
  # bit-for-bit, and the defenses must actually fire (every adversary
  # connection forcibly closed by the server).
  ./build-tsan/tools/yver_cli loadgen --port "$port" --adversary slowloris \
      --connections 2 --duration-ms 8000 --write-interval-ms 100 --json \
      >"$smoke_dir/adv_slow.json" &
  adv_slow_pid=$!
  ./build-tsan/tools/yver_cli loadgen --port "$port" --adversary never-read \
      --connections 2 --duration-ms 8000 --json >"$smoke_dir/adv_nr.json" &
  adv_nr_pid=$!
  ./build-tsan/tools/yver_cli loadgen --port "$port" --replay "$smoke_dir/cap.yvr" \
      --connections 3 --json >"$smoke_dir/rep3.json"
  wait "$adv_slow_pid" || { echo "slowloris adversary exited non-zero" >&2; exit 1; }
  wait "$adv_nr_pid" || { echo "never-read adversary exited non-zero" >&2; exit 1; }
  h3="$(hash_of "$smoke_dir/rep3.json")"
  [[ "$h3" == "$h0" ]] || {
    echo "replay under attack diverged: $h3 vs $h0" >&2; exit 1; }
  closed_of() { sed -n 's/.*"server_closed": \([0-9]*\).*/\1/p' "$1"; }
  adv_slow_closed="$(closed_of "$smoke_dir/adv_slow.json")"
  adv_nr_closed="$(closed_of "$smoke_dir/adv_nr.json")"
  [[ "$adv_slow_closed" -gt 0 ]] || {
    echo "slowloris connections were never disconnected" >&2
    cat "$smoke_dir/adv_slow.json" >&2; exit 1; }
  [[ "$adv_nr_closed" -gt 0 ]] || {
    echo "never-read connections were never disconnected" >&2
    cat "$smoke_dir/adv_nr.json" >&2; exit 1; }
  # Live-update smoke against the same TSan server (it runs --live): append
  # fresh reports over the wire, wait for the served generation to contain
  # them, and query the last one back — the DESIGN.md §13 ingest path
  # end to end over a real socket, race-checked.
  ./build-tsan/tools/yver_cli generate --persons 10 --out "$smoke_dir/new.csv" --seed 11 >/dev/null
  ./build-tsan/tools/yver_cli append --port "$port" --in "$smoke_dir/new.csv" --count 5 --verify || {
    echo "live append smoke failed" >&2; cat "$smoke_dir/serve.log" >&2; exit 1; }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || { echo "serve exited non-zero after SIGTERM" >&2; cat "$smoke_dir/serve.log" >&2; exit 1; }

  echo "==> tier-1: crash-recovery smoke (WAL-backed serve, SIGKILL mid-stream)"
  # Durability end to end (DESIGN.md §14): a WAL-backed server takes a
  # stream of appends, is SIGKILLed mid-stream with no chance to flush,
  # and a restart on the same --wal-dir must replay every acked record —
  # `append --verify-from 0` then queries every record in the recovered
  # corpus, so a single lost ack fails the stage.
  ./build-tsan/tools/yver_cli serve --in "$smoke_dir/data.csv" --index "$smoke_dir/idx.yvx" \
      --live --wal-dir "$smoke_dir/wal" --port-file "$smoke_dir/port2" >"$smoke_dir/serve2.log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 1 200); do [[ -s "$smoke_dir/port2" ]] && break; sleep 0.05; done
  [[ -s "$smoke_dir/port2" ]] || { echo "WAL serve never wrote its port file" >&2; cat "$smoke_dir/serve2.log" >&2; exit 1; }
  port2="$(cat "$smoke_dir/port2")"
  ./build-tsan/tools/yver_cli append --port "$port2" --in "$smoke_dir/new.csv" --count 10 \
      >"$smoke_dir/append.log" 2>&1 &
  append_pid=$!
  # Let a few appends land, then kill the server dead mid-stream: no
  # SIGTERM handler runs, so only the WAL carries the acked records.
  sleep 0.3
  kill -KILL "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  wait "$append_pid" 2>/dev/null || true  # appender may see the reset; that's the point
  rm -f "$smoke_dir/port2"
  ./build-tsan/tools/yver_cli serve --in "$smoke_dir/data.csv" --index "$smoke_dir/idx.yvx" \
      --live --wal-dir "$smoke_dir/wal" --port-file "$smoke_dir/port2" >"$smoke_dir/serve3.log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 1 200); do [[ -s "$smoke_dir/port2" ]] && break; sleep 0.05; done
  [[ -s "$smoke_dir/port2" ]] || { echo "restarted WAL serve never wrote its port file" >&2; cat "$smoke_dir/serve3.log" >&2; exit 1; }
  port2="$(cat "$smoke_dir/port2")"
  grep -q "wal: recovered" "$smoke_dir/serve3.log" || {
    echo "restarted serve did not report WAL recovery" >&2; cat "$smoke_dir/serve3.log" >&2; exit 1; }
  recovered_line="$(grep "wal: recovered" "$smoke_dir/serve3.log")"
  # Every record acked before the kill — and the seed corpus — must answer.
  ./build-tsan/tools/yver_cli append --port "$port2" --in "$smoke_dir/new.csv" --count 5 \
      --verify --verify-from 0 || {
    echo "post-recovery append/verify failed" >&2; cat "$smoke_dir/serve3.log" >&2; exit 1; }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || { echo "WAL serve exited non-zero after SIGTERM" >&2; cat "$smoke_dir/serve3.log" >&2; exit 1; }
  trap - EXIT
  rm -rf "$smoke_dir"
  echo "loopback smoke: 4000 queries, replay hash $h0 reproduced three times (once under attack)"
  echo "adversarial smoke: server closed $adv_slow_closed slowloris / $adv_nr_closed never-read connections"
  echo "crash-recovery smoke: $recovered_line"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "==> tier-1: ASan+UBSan memory check (feature path + golden + determinism)"
  cmake -B build-asan -S . -DYVER_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$(nproc)" --target yver_tests
  # The live-update suites run memory-checked too: snapshot retirement
  # (IndexManager*) is a lifetime protocol, the append codec (*Wire*) is
  # raw offset arithmetic over hostile bytes, and LiveIndexBuilder*/
  # ServicePublish* exercise the resolver-to-snapshot copy path.
  # Wal* adds the durability layer: torn-tail recovery and the bit-flip
  # fuzz walk raw offsets over deliberately corrupted segment bytes, which
  # is exactly what ASan+UBSan exist to pin down; Gazetteer* covers the
  # owned-resolver lifetime contract the serving path depends on.
  # FpTree*/FpGrowth*/MinerEquivalence*/*MfiBlocks* cover the arena
  # FP-tree, whose nodes link by raw uint32_t indices, and the CSR
  # postings of the maximality filter; InvertedIndex* the bitset rows'
  # tail masks and word offsets, *MfiBlocks* also the block scorer's
  # per-thread pmr arena, ThreadPool* the shared ParallelFor cursor and
  # its lifetime against a rethrown task; ScoreBound*/BoundedThreshold*/
  # *ReferenceMfiBlocks* the union bound's per-thread mark array, grown
  # per dictionary, and the index-subset threshold passes. FormatPin*,
  # CaptureFile* and *ResolutionIndex* drive the shared util/byte_codec.h
  # reader, whose bounds checks are raw offset arithmetic, through the
  # byte pins, the capture loader and the .yvx loader.
  ./build-asan/tests/yver_tests --gtest_filter='*Feature*:*Qgram*:*QGram*:*Jaccard*:*Geo*:Determinism*:GoldenPipeline*:*Incremental*:ChaosTest*:ArtifactFuzzTest*:CsvLenientTest*:ServiceRobustness*:IndexManager*:LiveIndexBuilder*:ServicePublish*:*Wire*:NetLiveIngest*:Wal*:Gazetteer*:FpTree*:FpGrowth*:MinerEquivalence*:InvertedIndex*:*MfiBlocks*:ThreadPool*:FormatPin*:CaptureFile*:*ResolutionIndex*:ScoreBound*:BoundedThreshold*:*ReferenceMfiBlocks*'
fi

echo "==> all checks passed"
