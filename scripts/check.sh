#!/usr/bin/env sh
# Pre-merge gate: tier-1 build + tests, the fault/resilience label on
# its own, and a thread-sanitized build of the backend smoke harness.
#
#   scripts/check.sh [build-dir]
#
# The build dir defaults to ./build; the TSan configure goes to
# <build-dir>-tsan.  Every step stops the script on failure.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
tsan_build="${build}-tsan"
jobs=$(nproc 2>/dev/null || echo 2)

step() {
  printf '\n== %s ==\n' "$*"
}

step "tier 1: configure + build ($build)"
cmake -S "$repo" -B "$build"
cmake --build "$build" -j "$jobs"

step "tier 1: full test suite"
ctest --test-dir "$build" --output-on-failure

step "resilience: ctest -L fault"
ctest --test-dir "$build" -L fault --output-on-failure

step "capture-time chunk: ctest -L tuner"
ctest --test-dir "$build" -L tuner --output-on-failure

step "cancellation/deadlines/backpressure: ctest -L cancel"
ctest --test-dir "$build" -L cancel --output-on-failure

step "job service: ctest -L service"
ctest --test-dir "$build" -L service --output-on-failure

step "chaos: ctest -L chaos (faulted tenant heals, bystanders bit-exact)"
ctest --test-dir "$build" -L chaos --output-on-failure

step "shard core: ctest -L shard (decomposition, exchange, bit-exactness matrix)"
ctest --test-dir "$build" -L shard --output-on-failure

step "fusion: ctest -L fusion (planner legality, fused runtime, acceptance matrix)"
ctest --test-dir "$build" -L fusion --output-on-failure

step "reliable wire: ctest -L wire (frame codec, chaos, retransmit, link death)"
ctest --test-dir "$build" -L wire --output-on-failure

step "timing-dependent tests: ctest -L cancel / -L wire, each test up to 40 runs"
# Cancellation and wire tests race completion against cancels, drops
# and retransmits, so a rare interleaving can fail one run in hundreds.
# Repeating each test until it fails surfaces such flakes here instead
# of in a later, unrelated change (about 40 s on a 4-core VM).
ctest --test-dir "$build" -L cancel -j "$jobs" --repeat until-fail:40 \
    --output-on-failure
ctest --test-dir "$build" -L wire -j "$jobs" --repeat until-fail:40 \
    --output-on-failure

step "job service: bench_service soak (writes BENCH_service.json)"
# A short multi-tenant soak through the admission controller: hard-fails
# when everything was shed or p99 job latency blew up — either means
# admission or fairness is broken.
(cd "$repo" && "$build/bench/bench_service" --tenants=8 --jobs=3 --iters=10 --soak)

step "self-healing: airfoil under an injected stall (deadline + ladder + window)"
# A 60 s stall in res_calc must not abort or hang the solve: the
# deadline cancels the attempt, the ladder re-runs it a rung down, and
# the bounded dataflow window keeps admission finite throughout.
OP2_FAULT='res_calc:stall:at=2,stall_ms=60000' \
OP2_FAILURE_POLICY='deadline=250' \
OP2_WATCHDOG_MS=400 \
OP2_DATAFLOW_WINDOW=8 \
  "$build/examples/airfoil_app" --backend=hpx_dataflow --threads=4 \
      --imax=40 --jmax=40 --iters=20 --profile

step "launch path: replay + chain-building gates (zero allocs/node)"
# Both tuner arms: OP2_TUNER=off (the per-invocation auto-partitioner)
# and the default on (a static chunk chosen at capture) must each keep
# the steady-state gate clean.  The binary also gates the continuation
# core's chain-BUILDING path: 0 allocations per then/dataflow node once
# the operation-state block pool is warm, ≤1 for oversize
# continuations.
OP2_TUNER=off "$build/bench/launch_overhead"
OP2_TUNER=on "$build/bench/launch_overhead"

step "capture-time chunk: fixed after warm-up, within 1.15x of the best static chunk (ablation_tuner)"
# Every airfoil loop must hold a converged chunk with 0 probing feeds
# after one warm run_classic call, and the chosen chunk's median over 11
# interleaved rounds must be within 1.15x of the fastest of static:4,
# static:16 and static:64.
"$build/bench/ablation_tuner"

step "shard core: overlapped exchange must beat the fenced schedule (ablation_shard)"
# Fenced vs overlapped halo exchange under a deterministic simulated
# link latency; hard-fails if the overlap win regresses or the two
# schedules disagree on a single bit of the solution.
"$build/bench/ablation_shard"

step "reliable wire: overlap win must survive 1% frame loss (ablation_wire)"
# The same fenced-vs-overlapped comparison over the reliable wire stack
# with a deterministic 1% drop rate injected below the protocol;
# hard-fails if the schedules disagree on a single bit, the overlap win
# disappears, no retransmit was needed (loss did not engage) or a link
# was declared dead.
"$build/bench/ablation_wire"

step "benchmark: perfbench self-tests (perfbench/selftest.py)"
# The benchmark's own statistics, oracle and metric plumbing; builds its
# binary into perfbench's .bench_build/ (about a minute).
(cd "$repo" && python3 perfbench/selftest.py)

step "fusion: fused must beat unfused, tiled must beat fused (ablation_fusion)"
# Unfused / fused / fused+tiled over a DRAM-resident direct chain in 7
# interleaved rounds; every run must produce the same checksum bits, and
# each schedule's median wall time must beat the previous one's, or the
# binary exits non-zero.
"$build/bench/ablation_fusion"

step "thread sanitizer: configure + build backend_smoke ($tsan_build)"
# libstdc++.so is not TSan-instrumented, so the atomic refcounts inside
# std::exception_ptr are invisible to the tool; scripts/tsan.supp
# suppresses exactly that false positive (see the file for details).
TSAN_OPTIONS="suppressions=$repo/scripts/tsan.supp${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
export TSAN_OPTIONS
cmake -S "$repo" -B "$tsan_build" -DOP2_SANITIZE=thread
cmake --build "$tsan_build" -j "$jobs" --target backend_smoke

step "thread sanitizer: the whole op2 launch-path suite (test_op2)"
# Every test of the capture/replay core under TSan: prepared and
# fused-site replays, async overlap of one call site with itself, the
# dataflow node bodies, and the reduction-merge contention tests (lost-
# update stress cannot bite on a single-CPU host; TSan detects an
# unsynchronised final combine deterministically regardless of core
# count).
cmake --build "$tsan_build" -j "$jobs" --target test_op2
"$tsan_build/tests/test_op2"

step "thread sanitizer: cancellation racing completion (CancelStress)"
# The stop-token fast paths are relaxed atomics by design; TSan checks
# the chunk hand-off and callback teardown around a racing cancel.
cmake --build "$tsan_build" -j "$jobs" --target test_cancel
"$tsan_build/tests/test_cancel" --gtest_filter='CancelStress.*'

step "thread sanitizer: job-service admission controller (ServiceStress)"
# Concurrent submit/cancel/set_quota against the weighted-fair
# dispatcher, plus faulted-and-clean tenants churning through real
# Airfoil jobs — the admission controller's locking under TSan.
cmake --build "$tsan_build" -j "$jobs" --target test_service test_chaos
"$tsan_build/tests/test_service" --gtest_filter='ServiceStress.*'
"$tsan_build/tests/test_chaos" --gtest_filter='ChaosServiceStress.*'

step "thread sanitizer: the whole shard suite (test_shard)"
# Every shard test under TSan: the owner/halo decomposition, concurrent
# fence waiters racing the exchanger's progress thread across hundreds
# of rounds plus mid-round destruction (the pack/publish/consume/scatter
# hand-off and the fence fast path), and the sharded Airfoil driver's
# shard tasks, bit-identity matrix, chaos healing and service jobs.
cmake --build "$tsan_build" -j "$jobs" --target test_shard
"$tsan_build/tests/test_shard"

step "thread sanitizer: reliable wire protocol (WireStress)"
# Two links published/consumed from racing threads while the pump
# thread retransmits through a lossy chaos wire, plus exchanger rounds
# with concurrent fence waiters over the full wire stack — the
# protocol's pending/stash/delivered locking under TSan.
cmake --build "$tsan_build" -j "$jobs" --target test_wire
"$tsan_build/tests/test_wire" --gtest_filter='WireStress.*'

step "thread sanitizer: the whole fusion suite (test_fusion)"
# Every fusion test under TSan, including several threads replaying
# through ONE shared handle (the site cache's find/CAS/busy paths) and
# fused dataflow nodes racing on the worker pool.
cmake --build "$tsan_build" -j "$jobs" --target test_fusion
"$tsan_build/tests/test_fusion"

step "thread sanitizer: operation-state continuation core (OpState)"
# The pooled op-state path moves completion hand-off onto intrusive
# node lists and a thread-cached block pool; TSan checks registration
# racing completion, pool recycling across threads, and the combinator
# arm countdowns.
cmake --build "$tsan_build" -j "$jobs" --target test_hpxlite_future
"$tsan_build/tests/test_hpxlite_future" \
    --gtest_filter='OpState.*:FutureTest.*:AsyncTest.*:DataflowTest.*:WhenAnyTest.*'

printf '\nAll checks passed.\n'
