#!/bin/sh
# CI gate for the PaSh reproduction workspace.
#
#   ./ci.sh          # full gate
#
# Steps, in order:
#   1. release build of every workspace target (deny warnings);
#   2. the full test suite (unit + integration + doctests), plus the
#      end-to-end benchmark crate's build and tests (it sits outside
#      the workspace, so a runtime API change could otherwise break it
#      unnoticed);
#   3. example smoke build;
#   4. compile (but don't run) all criterion benches;
#   5. dataplane bench smoke: run at a small size, check the emitted
#      BENCH_dataplane.json parses, and assert the simulated r_split
#      speedup over the skewed general split;
#   6. regex bench smoke: tiered-vs-PikeVM suite at a small size,
#      check the emitted BENCH_regex.json parses;
#   7. plan-determinism smoke (segment split and r_split plans);
#   8. process-backend smoke: one corpus script as real children over
#      FIFOs, byte-compared against the shell backend's output;
#   9. remote-backend smoke: two pash-worker daemons on localhost
#      sockets, the corpus at width 4, byte-compared against the shell
#      backend; plus the simulated remote-recovery overhead band;
#  10. fault-injection sweep: every fault kind at widths 2/4/8 must
#      leave output byte-identical to the sequential run, and the
#      simulated fallback overhead must stay a small constant;
#  11. service smoke: pashd + load generator — both plan-cache tiers
#      must fire, warm latency must undercut cold, warm request rate
#      must clear the floor (gates on BENCH_service.json);
#  12. adaptive-parallelism gate: the optimizer replays the NLP corpus
#      through the simulator under skew and must beat the worst fixed
#      width while staying within noise of the best fixed width
#      (gates on BENCH_adaptive.json); plus a profile warm-start
#      smoke over the daemon's disk tier;
#  13. rustfmt check.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release (workspace, all targets, deny warnings)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace --all-targets

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> cargo test --release (e2ebench crate)"
cargo test --release --manifest-path e2ebench/Cargo.toml

echo "==> cargo build --examples (smoke)"
cargo build --examples

echo "==> cargo bench --no-run (workspace)"
cargo bench --no-run --workspace

echo "==> dataplane bench smoke (BENCH_dataplane.json well-formed)"
mkdir -p target/bench-smoke
./target/release/dataplane --size small --out target/bench-smoke/BENCH_dataplane.json
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool target/bench-smoke/BENCH_dataplane.json >/dev/null
else
    grep -q '"bench":"dataplane"' target/bench-smoke/BENCH_dataplane.json
fi

echo "==> r_split speedup smoke (skewed corpus, simulated width 8)"
# The simulator is deterministic, so this is a stable gate: the
# streaming round-robin split must beat the blocking, skew-prone
# general split on the line-length-skewed corpus.
rr_speedup=$(sed -n 's/.*"rr_vs_general_split_speedup":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_dataplane.json)
test -n "$rr_speedup"
awk "BEGIN { exit !($rr_speedup > 1.05) }"
echo "    r_split vs general split on skewed input: ${rr_speedup}x"

echo "==> regex bench smoke (BENCH_regex.json well-formed)"
# Also re-asserts (inside run_suite) that the tiered engine and the
# Pike VM agree on every benchmark corpus before timing them.
./target/release/regexbench --size small --out target/bench-smoke/BENCH_regex.json
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool target/bench-smoke/BENCH_regex.json >/dev/null
else
    grep -q '"bench":"regex"' target/bench-smoke/BENCH_regex.json
fi
grep -q '"speedup_vs_pikevm"' target/bench-smoke/BENCH_regex.json

echo "==> plan determinism smoke (same script+config => byte-identical dump)"
# The compile-result cache keys on (source, config); this step proves
# the lowered plan is a deterministic function of that key, across
# separate processes (catches e.g. hash-iteration nondeterminism).
PLAN_SCRIPT='base=logs
for y in 2015 2016; do
  cat in-$y.txt | tr A-Z a-z | grep x | sort | uniq -c > out-$y.txt
done
grep -c z summary.txt > count.txt && sort count.txt'
./target/release/plandump --width 8 --split sized -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_a.txt 2>/dev/null
./target/release/plandump --width 8 --split sized -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_b.txt 2>/dev/null
cmp target/bench-smoke/plan_a.txt target/bench-smoke/plan_b.txt
test -s target/bench-smoke/plan_a.txt
# Same property over the round-robin plan shapes (rr split nodes,
# framed workers, the reorder aggregator).
./target/release/plandump --width 8 --split rr -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_rr_a.txt 2>/dev/null
./target/release/plandump --width 8 --split rr -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_rr_b.txt 2>/dev/null
cmp target/bench-smoke/plan_rr_a.txt target/bench-smoke/plan_rr_b.txt
grep -q 'split rr' target/bench-smoke/plan_rr_a.txt

echo "==> process backend smoke (cmp against the shell backend)"
# The same script, same generated corpus, executed twice: once as an
# emitted POSIX script under /bin/sh, once as real child processes
# over FIFOs walking the lowered plan. The outputs must be identical.
SMOKE_SCRIPT='cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt'
for b in shell processes; do
    rm -rf "target/bench-smoke/backend-$b"
    mkdir -p "target/bench-smoke/backend-$b"
    ./target/release/backendrun --backend "$b" --width 4 \
        --dir "target/bench-smoke/backend-$b" --gen in.txt:200000 \
        -e "$SMOKE_SCRIPT"
done
cmp target/bench-smoke/backend-shell/out.txt \
    target/bench-smoke/backend-processes/out.txt
test -s target/bench-smoke/backend-processes/out.txt

echo "==> remote backend smoke (2 localhost workers, cmp against shell)"
# The same corpus script again, this time with every parallel region
# shipped to two pash-worker daemons over Unix sockets (per-attempt
# placement under the supervised recovery ladder). The output must be
# byte-identical to the shell backend's.
rm -rf target/bench-smoke/backend-remote
mkdir -p target/bench-smoke/backend-remote
W1=target/bench-smoke/worker-1.sock
W2=target/bench-smoke/worker-2.sock
rm -f "$W1" "$W2"
./target/release/pash-worker --socket "$W1" & WPID1=$!
./target/release/pash-worker --socket "$W2" & WPID2=$!
trap 'kill $WPID1 $WPID2 2>/dev/null || true' EXIT
for _ in 1 2 3 4 5 6 7 8 9 10; do
    [ -S "$W1" ] && [ -S "$W2" ] && break
    sleep 0.2
done
./target/release/backendrun --backend remote --width 4 \
    --dir target/bench-smoke/backend-remote --gen in.txt:200000 \
    --worker "$W1" --worker "$W2" -e "$SMOKE_SCRIPT"
cmp target/bench-smoke/backend-shell/out.txt \
    target/bench-smoke/backend-remote/out.txt
test -s target/bench-smoke/backend-remote/out.txt
kill $WPID1 $WPID2 2>/dev/null || true
wait $WPID1 $WPID2 2>/dev/null || true
trap - EXIT

echo "==> fault-injection sweep (every kind, widths 2/4/8, vs sequential)"
# Deterministic seeded faults — worker death, spawn/mkfifo failure,
# frame truncation/corruption, edge stall — with the supervisor
# recovering via retry, deadline kill, or sequential fallback. The
# binary exits nonzero if any cell's output diverges or a recovery
# path never fired.
./target/release/faultsweep

echo "==> fault fallback overhead gate (simulated)"
# A persistent fault burns the retry budget and reruns sequentially;
# the simulated episode must stay a small constant over the
# never-parallelized baseline (detection + backoff + one seq rerun).
fault_overhead=$(sed -n 's/.*"fault_fallback_overhead_x":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_dataplane.json)
test -n "$fault_overhead"
awk "BEGIN { exit !($fault_overhead > 1.0 && $fault_overhead < 2.5) }"
echo "    persistent-fault fallback vs sequential: ${fault_overhead}x"

echo "==> remote recovery overhead gate (simulated)"
# Losing a worker mid-region must cost a bounded constant — the
# partial doomed attempt plus one backoff plus a clean retry on the
# other worker — not a rerun-from-scratch cliff.
remote_overhead=$(sed -n 's/.*"remote_reroute_overhead_x":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_dataplane.json)
test -n "$remote_overhead"
awk "BEGIN { exit !($remote_overhead > 1.0 && $remote_overhead < 2.0) }"
echo "    remote reroute vs undisturbed remote run: ${remote_overhead}x"

echo "==> service smoke (pashd + load generator, BENCH_service.json gates)"
# Start a daemon, replay the corpus cold / warm-in-memory /
# warm-across-restart (disk tier), sweep concurrency, and gate:
# both cache tiers must have fired, a warm request's p50 must come in
# below cold (the compile component collapses on a hit), and the warm
# request rate must clear the floor.
./target/release/pash-bench --out target/bench-smoke/BENCH_service.json \
    --pashd ./target/release/pashd
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool target/bench-smoke/BENCH_service.json >/dev/null
else
    grep -q '"bench":"service"' target/bench-smoke/BENCH_service.json
fi
tier1=$(sed -n 's/.*"tier1_hits":\([0-9]*\).*/\1/p' target/bench-smoke/BENCH_service.json)
tier2=$(sed -n 's/.*"tier2_hits":\([0-9]*\).*/\1/p' target/bench-smoke/BENCH_service.json)
test -n "$tier1" && test "$tier1" -ge 1
test -n "$tier2" && test "$tier2" -ge 1
warm_ratio=$(sed -n 's/.*"warm_vs_cold_paired_median":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_service.json)
test -n "$warm_ratio"
awk "BEGIN { exit !($warm_ratio < 0.97) }"
compile_ratio=$(sed -n 's/.*"compile_warm_vs_cold_p50_ratio":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_service.json)
test -n "$compile_ratio"
awk "BEGIN { exit !($compile_ratio < 0.5) }"
warm_rps=$(sed -n 's/.*"warm_rps":\([0-9.]*\).*/\1/p' target/bench-smoke/BENCH_service.json)
test -n "$warm_rps"
awk "BEGIN { exit !($warm_rps > 10.0) }"
echo "    tier1 hits: $tier1, tier2 hits: $tier2, warm/cold p50: ${warm_ratio}x, warm rate: ${warm_rps} req/s"

echo "==> profile warm-start smoke (daemon restart resumes measured rates)"
# Phase 5 of the service bench sends adaptive (width 0) requests,
# restarts the daemon over the same cache dir, and sends one more: the
# fresh process must serve it from profiles read back off disk.
restart_hits=$(sed -n 's/.*"restart_profile_hits":\([0-9]*\).*/\1/p' \
    target/bench-smoke/BENCH_service.json)
test -n "$restart_hits" && test "$restart_hits" -ge 1
restart_width=$(sed -n 's/.*"restart_adaptive_width":\([0-9]*\).*/\1/p' \
    target/bench-smoke/BENCH_service.json)
test -n "$restart_width" && test "$restart_width" -ge 1
echo "    profile hits after restart: $restart_hits, adaptive width: $restart_width"

echo "==> adaptive parallelism gate (simulated NLP corpus under skew)"
# Deterministic simulator replay: per-region profile-guided choices
# must beat the worst global fixed (width, split) by >= 1.1x and stay
# within 1.05x of the best global fixed configuration.
./target/release/adaptive --out target/bench-smoke/BENCH_adaptive.json
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool target/bench-smoke/BENCH_adaptive.json >/dev/null
else
    grep -q '"bench":"adaptive"' target/bench-smoke/BENCH_adaptive.json
fi
vs_worst=$(sed -n 's/.*"adaptive_vs_worst_fixed_speedup":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_adaptive.json)
test -n "$vs_worst"
awk "BEGIN { exit !($vs_worst >= 1.1) }"
vs_best=$(sed -n 's/.*"adaptive_vs_best_fixed_ratio":\([0-9.]*\).*/\1/p' \
    target/bench-smoke/BENCH_adaptive.json)
test -n "$vs_best"
awk "BEGIN { exit !($vs_best <= 1.05) }"
echo "    adaptive vs worst fixed: ${vs_worst}x, vs best fixed: ${vs_best}"

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci.sh: all green"
