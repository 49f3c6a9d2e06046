// Launch-path cost microbenchmark and regression gate.
//
// Measures, on the seq backend, the cost of op_par_loop's two launch
// paths:
//   capture — first invocation at a call site (validation, plan
//             lookup, binding, write-set scan, reduction-scratch
//             allocation, closure erasure)
//   replay  — repeat invocation of a prepared descriptor
// and *gates* the two properties the prepared-loop pipeline promises
// for a steady-state synchronous replay:
//   1. zero heap allocations (counted by interposing operator new)
//   2. zero plan-cache lookups (op2::plan_cache_lookups())
//
// A third arm gates the continuation core's chain-BUILDING path: after
// one warm-up round to prime the operation-state block pool,
//   3. a `.then` chain of small continuations builds with ZERO heap
//      allocations per node,
//   4. a dataflow chain of small nodes likewise builds with ZERO,
//   5. oversize continuations (captures larger than a pool block) cost
//      at most ONE allocation per node.
//
// A fourth arm re-runs the replay gate on the hpx_shard backend: the
// same loops issued inside an active shard_scope (clamped window,
// completed exchange fence, conflict-free staged write — the shape
// every loop of the sharded Airfoil driver has) must also replay with
// zero heap allocations and zero plan-cache lookups once warm.
//
// A fifth arm runs the whole Airfoil solver on seq (60x30 mesh): once
// warm, an extra iteration of run_classic or of the service's run_job
// (each loop launched from the airfoil loop table) must cost zero heap
// allocations.
//
// scripts/check.sh runs this binary; a non-zero exit fails the gate.
// Output is human-readable ns/loop so regressions are quantifiable.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "airfoil/job.hpp"
#include "airfoil/solver.hpp"
#include "hpxlite/dataflow.hpp"
#include "hpxlite/future.hpp"
#include "op2/op2.hpp"
#include "op2/shard.hpp"

// --- operator new interposition ---------------------------------------
// One process-wide counter, bumped by every allocation on any thread.
// Zero-initialised static storage, so counting is valid from the very
// first allocation (even before main).

namespace {
std::atomic<std::uint64_t> g_allocs;

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// --- the measured loops -----------------------------------------------

namespace {

void sum_kernel(const double* x, double* acc) { acc[0] += x[0]; }

void edge_kernel(const double* a, double* b) { b[0] += 0.5 * a[0]; }

// The sharded driver's staged-increment shape: indirect reads, direct
// per-edge write — conflict-free, so the hpx_shard executor splits it
// into interior/boundary spans around the exchange fence.
void stage_kernel(const double* a, const double* b, double* st) {
  st[0] = a[0] - b[0];
}

constexpr int kCells = 1024;
constexpr int kReplays = 2000;
constexpr int kCaptures = 64;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct mesh {
  op2::op_set cells;
  op2::op_set edges;
  op2::op_map pedge;
  op2::op_dat p_x;
  op2::op_dat p_y;
  op2::op_dat p_stage;
};

mesh make_mesh() {
  mesh m;
  m.cells = op2::op_decl_set(kCells, "cells");
  m.edges = op2::op_decl_set(kCells, "edges");
  std::vector<int> e2c(static_cast<std::size_t>(kCells) * 2);
  for (int i = 0; i < kCells; ++i) {
    e2c[static_cast<std::size_t>(2 * i)] = i;
    e2c[static_cast<std::size_t>(2 * i) + 1] = (i + 1) % kCells;
  }
  m.pedge = op2::op_decl_map(m.edges, m.cells, 2,
                             std::span<const int>(e2c), "pedge");
  std::vector<double> x(kCells, 1.0);
  m.p_x = op2::op_decl_dat<double>(m.cells, 1, "double",
                                   std::span<const double>(x), "p_x");
  m.p_y = op2::op_decl_dat<double>(m.cells, 1, "double", "p_y");
  m.p_stage = op2::op_decl_dat<double>(m.edges, 1, "double", "p_stage");
  return m;
}

/// One invocation of the measured loop pair: a direct loop with a
/// global reduction (exercises the per-worker reduction slots) and an
/// indirect coloured loop (exercises the plan path).
void run_pair(op2::loop_handle& hd, op2::loop_handle& hi, mesh& m,
              double* total) {
  op2::op_par_loop(hd, sum_kernel, "lo_sum", m.cells,
                   op2::op_arg_dat<double>(m.p_x, -1, op2::OP_ID, 1,
                                           op2::OP_READ),
                   op2::op_arg_gbl<double>(total, 1, op2::OP_INC));
  op2::op_par_loop(hi, edge_kernel, "lo_edge", m.edges,
                   op2::op_arg_dat<double>(m.p_x, 0, m.pedge, 1,
                                           op2::OP_READ),
                   op2::op_arg_dat<double>(m.p_y, 1, m.pedge, 1,
                                           op2::OP_INC));
}

/// One invocation of the shard-arm loop pair: the direct reduction
/// (clamped to the shard window) and the staged conflict-free edge
/// loop (split into interior/boundary spans around the fence).
void run_shard_pair(op2::loop_handle& hd, op2::loop_handle& hi, mesh& m,
                    double* total) {
  op2::op_par_loop(hd, sum_kernel, "lo_sum@s0", m.cells,
                   op2::op_arg_dat<double>(m.p_x, -1, op2::OP_ID, 1,
                                           op2::OP_READ),
                   op2::op_arg_gbl<double>(total, 1, op2::OP_INC));
  op2::op_par_loop(hi, stage_kernel, "lo_stage@s0", m.edges,
                   op2::op_arg_dat<double>(m.p_x, 0, m.pedge, 1,
                                           op2::OP_READ),
                   op2::op_arg_dat<double>(m.p_x, 1, m.pedge, 1,
                                           op2::OP_READ),
                   op2::op_arg_dat<double>(m.p_stage, -1, op2::OP_ID, 1,
                                           op2::OP_WRITE));
}

/// One invocation of the fused-arm launch: the direct reduction and a
/// direct scale loop fused into ONE traversal (the PR-9 fused prepared
/// path) — its replay must stay allocation-free like the unfused one.
void run_fused(op2::fused_handle& h, mesh& m, double* total) {
  op2::op_par_loop_fused(
      h, m.cells,
      op2::fuse_loop(sum_kernel, "lo_fsum",
                     op2::op_arg_dat<double>(m.p_x, -1, op2::OP_ID, 1,
                                             op2::OP_READ),
                     op2::op_arg_gbl<double>(total, 1, op2::OP_INC)),
      op2::fuse_loop(edge_kernel, "lo_fscale",
                     op2::op_arg_dat<double>(m.p_x, -1, op2::OP_ID, 1,
                                             op2::OP_READ),
                     op2::op_arg_dat<double>(m.p_y, -1, op2::OP_ID, 1,
                                             op2::OP_RW)));
}

int fail(const char* what, std::uint64_t observed) {
  std::fprintf(stderr,
               "launch_overhead: GATE FAILED: %s (observed %llu, "
               "expected 0)\n",
               what, static_cast<unsigned long long>(observed));
  return 1;
}

// --- chain-building arm ------------------------------------------------
// Builds a `.then` (and a dataflow) chain of kChainLen nodes per round,
// then resolves it.  Only the BUILD segment is counted: the window from
// the first then()/dataflow() to the last, before the promise is set.
// One untimed warm-up round primes the operation-state block pool.

constexpr int kChainLen = 256;
constexpr int kChainRounds = 64;

struct chain_result {
  std::uint64_t build_allocs = 0;  // operator new calls while building
  double build_ns_per_node = 0.0;
  int final_value = 0;
};

chain_result run_then_chain(int rounds) {
  chain_result r;
  double ns = 0.0;
  for (int round = 0; round < rounds; ++round) {
    hpxlite::promise<int> p;
    hpxlite::future<int> f = p.get_future();
    const std::uint64_t a0 = alloc_count();
    const double t0 = now_ns();
    for (int i = 0; i < kChainLen; ++i) {
      f = f.then([](hpxlite::future<int>&& in) { return in.get() + 1; });
    }
    ns += now_ns() - t0;
    r.build_allocs += alloc_count() - a0;
    p.set_value(0);
    r.final_value = f.get();
  }
  r.build_ns_per_node = ns / (static_cast<double>(rounds) * kChainLen);
  return r;
}

chain_result run_dataflow_chain(int rounds) {
  chain_result r;
  double ns = 0.0;
  for (int round = 0; round < rounds; ++round) {
    hpxlite::promise<int> p;
    hpxlite::future<int> f = p.get_future();
    const std::uint64_t a0 = alloc_count();
    const double t0 = now_ns();
    for (int i = 0; i < kChainLen; ++i) {
      f = hpxlite::dataflow(hpxlite::launch::async,
                            hpxlite::unwrapping([](int v) { return v + 1; }),
                            std::move(f));
    }
    ns += now_ns() - t0;
    r.build_allocs += alloc_count() - a0;
    p.set_value(0);
    r.final_value = f.get();
  }
  r.build_ns_per_node = ns / (static_cast<double>(rounds) * kChainLen);
  return r;
}

// Continuations whose capture exceeds a pool block fall back to a
// single operator new per node — the "≤1 alloc for general
// continuations" half of the gate.
chain_result run_oversize_chain(int rounds) {
  chain_result r;
  double ns = 0.0;
  for (int round = 0; round < rounds; ++round) {
    hpxlite::promise<int> p;
    hpxlite::future<int> f = p.get_future();
    const std::uint64_t a0 = alloc_count();
    const double t0 = now_ns();
    for (int i = 0; i < kChainLen; ++i) {
      std::array<char, 2 * hpxlite::op_state_block_size> ballast{};
      ballast[0] = static_cast<char>(1);
      f = f.then([ballast](hpxlite::future<int>&& in) {
        return in.get() + static_cast<int>(ballast[0]);
      });
    }
    ns += now_ns() - t0;
    r.build_allocs += alloc_count() - a0;
    p.set_value(0);
    r.final_value = f.get();
  }
  r.build_ns_per_node = ns / (static_cast<double>(rounds) * kChainLen);
  return r;
}

// --- Airfoil arm ---------------------------------------------------------
// Each call's fixed setup (the rms history, the job's output) cancels in
// the difference between a short and a long warm run, leaving what the
// extra iterations allocated.

constexpr int kAirfoilShort = 2;
constexpr int kAirfoilExtra = 8;

/// Heap allocations of `run(kAirfoilShort + kAirfoilExtra)` beyond those
/// of `run(kAirfoilShort)`, after one warm-up run captures every loop.
template <typename Run>
std::uint64_t extra_iteration_allocs(Run&& run) {
  run(kAirfoilShort);
  const std::uint64_t a0 = alloc_count();
  run(kAirfoilShort);
  const std::uint64_t a1 = alloc_count();
  run(kAirfoilShort + kAirfoilExtra);
  const std::uint64_t a2 = alloc_count();
  const std::uint64_t short_run = a1 - a0;
  const std::uint64_t long_run = a2 - a1;
  return long_run > short_run ? long_run - short_run : 0;
}

}  // namespace

int main() {
  op2::init(op2::make_config("seq", 1));
  op2::profiling::set_alloc_counter(&alloc_count);

  static op2::loop_handle h_direct;
  static op2::loop_handle h_indirect;
  mesh m = make_mesh();
  double total = 0.0;

  // Warm-up: the first invocation captures both descriptors.
  run_pair(h_direct, h_indirect, m, &total);

  // --- steady-state replay: timed AND gated ---------------------------
  const std::uint64_t allocs_before = alloc_count();
  const std::uint64_t lookups_before = op2::plan_cache_lookups();
  const double t0 = now_ns();
  for (int i = 0; i < kReplays; ++i) {
    run_pair(h_direct, h_indirect, m, &total);
  }
  const double t1 = now_ns();
  const std::uint64_t replay_allocs = alloc_count() - allocs_before;
  const std::uint64_t replay_lookups =
      op2::plan_cache_lookups() - lookups_before;
  const double replay_ns = (t1 - t0) / (2.0 * kReplays);

  // --- capture: fresh dats per round force a full rebuild -------------
  double capture_ns_total = 0.0;
  for (int i = 0; i < kCaptures; ++i) {
    mesh fresh = make_mesh();
    const double c0 = now_ns();
    run_pair(h_direct, h_indirect, fresh, &total);
    capture_ns_total += now_ns() - c0;
  }
  const double capture_ns = capture_ns_total / (2.0 * kCaptures);

  std::printf("launch_overhead (seq backend, %d cells, block %d)\n",
              kCells, op2::current_config().block_size);
  std::printf("  %-28s %12.0f ns/loop\n", "capture (first invocation)",
              capture_ns);
  std::printf("  %-28s %12.0f ns/loop\n", "replay (steady state)",
              replay_ns);
  std::printf("  %-28s %12.2f x\n", "capture / replay",
              replay_ns > 0.0 ? capture_ns / replay_ns : 0.0);
  std::printf("  %-28s %12llu\n", "replay heap allocations",
              static_cast<unsigned long long>(replay_allocs));
  std::printf("  %-28s %12llu\n", "replay plan-cache lookups",
              static_cast<unsigned long long>(replay_lookups));

  // --- fused replay: timed AND gated ----------------------------------
  // Two direct loops fused into one launch: after the capture, every
  // repeat call must rebind + interleave with zero heap allocations
  // and zero plan-cache lookups, exactly like the unfused replay.
  static op2::fused_handle h_fused;
  double fused_total = 0.0;
  run_fused(h_fused, m, &fused_total);  // warm-up: captures the group
  const std::uint64_t fa0 = alloc_count();
  const std::uint64_t fl0 = op2::plan_cache_lookups();
  const double f0 = now_ns();
  for (int i = 0; i < kReplays; ++i) {
    run_fused(h_fused, m, &fused_total);
  }
  const double fused_ns = (now_ns() - f0) / kReplays;
  const std::uint64_t fused_allocs = alloc_count() - fa0;
  const std::uint64_t fused_lookups = op2::plan_cache_lookups() - fl0;
  std::printf("  %-28s %12.0f ns/launch (2 member loops)\n",
              "fused replay (steady state)", fused_ns);
  std::printf("  %-28s %12llu\n", "fused replay heap allocations",
              static_cast<unsigned long long>(fused_allocs));
  std::printf("  %-28s %12llu\n", "fused replay plan lookups",
              static_cast<unsigned long long>(fused_lookups));

  // --- chain building: continuation-core build-path cost --------------
  // Warm-up primes the block pool (fresh blocks allocate); the measured
  // rounds must then build nodes entirely from recycled blocks.
  (void)run_then_chain(1);
  (void)run_dataflow_chain(1);
  const chain_result then_chain = run_then_chain(kChainRounds);
  const chain_result df_chain = run_dataflow_chain(kChainRounds);
  const chain_result big_chain = run_oversize_chain(4);
  const hpxlite::op_pool_counters pool = hpxlite::op_pool_stats();

  const std::uint64_t chain_nodes =
      static_cast<std::uint64_t>(kChainRounds) * kChainLen;
  std::printf("  %-28s %12.0f ns/node (allocs/node %.3f)\n",
              "then chain (build)", then_chain.build_ns_per_node,
              static_cast<double>(then_chain.build_allocs) /
                  static_cast<double>(chain_nodes));
  std::printf("  %-28s %12.0f ns/node (allocs/node %.3f)\n",
              "dataflow chain (build)", df_chain.build_ns_per_node,
              static_cast<double>(df_chain.build_allocs) /
                  static_cast<double>(chain_nodes));
  std::printf("  %-28s %12.0f ns/node (allocs/node %.3f)\n",
              "oversize then chain (build)", big_chain.build_ns_per_node,
              static_cast<double>(big_chain.build_allocs) /
                  static_cast<double>(4 * kChainLen));
  std::printf("  %-28s %12llu hits / %llu fresh / %llu oversize\n",
              "op-state pool",
              static_cast<unsigned long long>(pool.pool_hits),
              static_cast<unsigned long long>(pool.fresh_blocks),
              static_cast<unsigned long long>(pool.oversize_allocs));

  // --- shard backend replay: timed AND gated ---------------------------
  // The same promise on hpx_shard: a loop issued inside an active
  // shard_scope (window clamped, fence already completed, staged
  // conflict-free write) replays allocation-free once the descriptors
  // are captured and the op-state pool is primed.  Block size covers
  // the whole set so each interior/boundary span is one inline block —
  // the gate measures the LAUNCH path, not chunk-task spawning.
  op2::init(op2::make_config("hpx_shard", 2, 2 * kCells));
  static op2::loop_handle hs_direct;
  static op2::loop_handle hs_indirect;
  mesh sm = make_mesh();
  double shard_total = 0.0;
  static op2::shard_fence fence;
  fence.arm();
  fence.complete();  // the exchange this window waits on is done
  op2::shard_context ctx;
  ctx.active = true;
  ctx.shard = 0;
  ctx.interior_end = kCells / 2;
  ctx.iterate_end = kCells;
  ctx.fence = &fence;
  constexpr int kShardWarmups = 8;  // capture + prime the op-state pool
  std::uint64_t shard_allocs = 0;
  std::uint64_t shard_lookups = 0;
  double shard_ns = 0.0;
  {
    op2::shard_scope scope(ctx);
    for (int i = 0; i < kShardWarmups; ++i) {
      run_shard_pair(hs_direct, hs_indirect, sm, &shard_total);
    }
    const std::uint64_t sa0 = alloc_count();
    const std::uint64_t sl0 = op2::plan_cache_lookups();
    const double s0 = now_ns();
    for (int i = 0; i < kReplays; ++i) {
      run_shard_pair(hs_direct, hs_indirect, sm, &shard_total);
    }
    shard_ns = (now_ns() - s0) / (2.0 * kReplays);
    shard_allocs = alloc_count() - sa0;
    shard_lookups = op2::plan_cache_lookups() - sl0;
  }
  std::printf("  %-28s %12.0f ns/loop\n", "shard replay (steady state)",
              shard_ns);
  std::printf("  %-28s %12llu\n", "shard replay heap allocations",
              static_cast<unsigned long long>(shard_allocs));
  std::printf("  %-28s %12llu\n", "shard replay plan lookups",
              static_cast<unsigned long long>(shard_lookups));

  // --- Airfoil solver: zero allocations per extra warm iteration -------
  op2::init(op2::make_config("seq", 1));
  constexpr int kImax = 60;
  constexpr int kJmax = 30;
  std::uint64_t classic_allocs = 0;
  std::uint64_t job_allocs = 0;
  {
    auto sim = airfoil::make_sim(airfoil::generate_mesh({kImax, kJmax}));
    classic_allocs = extra_iteration_allocs(
        [&](int niter) { airfoil::run_classic(sim, niter); });
    airfoil::job_workspace ws;
    job_allocs = extra_iteration_allocs([&](int niter) {
      airfoil::job_params jp;
      jp.imax = kImax;
      jp.jmax = kJmax;
      jp.niter = niter;
      airfoil::run_job(jp, ws, hpxlite::stop_token{});
    });
  }
  std::printf("  %-28s %12llu (over %d extra iterations, seq %dx%d)\n",
              "run_classic allocations",
              static_cast<unsigned long long>(classic_allocs), kAirfoilExtra,
              kImax, kJmax);
  std::printf("  %-28s %12llu (over %d extra iterations, seq %dx%d)\n",
              "run_job allocations",
              static_cast<unsigned long long>(job_allocs), kAirfoilExtra,
              kImax, kJmax);

  int rc = 0;
  if (classic_allocs != 0) {
    rc = fail("warm run_classic heap-allocates per extra iteration",
              classic_allocs);
  }
  if (job_allocs != 0) {
    rc = fail("warm run_job heap-allocates per extra iteration", job_allocs);
  }
  if (replay_allocs != 0) {
    rc = fail("steady-state replay heap-allocates", replay_allocs);
  }
  if (shard_allocs != 0) {
    rc = fail("hpx_shard steady-state replay heap-allocates", shard_allocs);
  }
  if (shard_lookups != 0) {
    rc = fail("hpx_shard steady-state replay hits the plan cache",
              shard_lookups);
  }
  const double shard_expected =
      static_cast<double>(kCells) * (kShardWarmups + kReplays);
  if (shard_total != shard_expected) {
    std::fprintf(stderr,
                 "launch_overhead: shard reduction drift: got %f "
                 "expected %f\n",
                 shard_total, shard_expected);
    rc = 1;
  }
  if (replay_lookups != 0) {
    rc = fail("steady-state replay hits the plan cache", replay_lookups);
  }
  if (fused_allocs != 0) {
    rc = fail("fused steady-state replay heap-allocates", fused_allocs);
  }
  if (fused_lookups != 0) {
    rc = fail("fused steady-state replay hits the plan cache",
              fused_lookups);
  }
  const double fused_expected =
      static_cast<double>(kCells) * (1.0 + kReplays);
  if (fused_total != fused_expected) {
    std::fprintf(stderr,
                 "launch_overhead: fused reduction drift: got %f "
                 "expected %f\n",
                 fused_total, fused_expected);
    rc = 1;
  }
  if (then_chain.build_allocs != 0) {
    rc = fail("then-chain build path heap-allocates (small continuations)",
              then_chain.build_allocs);
  }
  if (df_chain.build_allocs != 0) {
    rc = fail("dataflow-chain build path heap-allocates (small nodes)",
              df_chain.build_allocs);
  }
  if (big_chain.build_allocs > static_cast<std::uint64_t>(4) * kChainLen) {
    rc = fail("oversize-chain build path exceeds one allocation per node",
              big_chain.build_allocs);
  }
  if (then_chain.final_value != kChainLen ||
      df_chain.final_value != kChainLen ||
      big_chain.final_value != kChainLen) {
    std::fprintf(stderr, "launch_overhead: chain result drift\n");
    rc = 1;
  }
  // Sanity: the reduction must have actually run every iteration.
  const double expected =
      static_cast<double>(kCells) *
      (1.0 + kReplays + kCaptures);  // warm-up + replays + captures
  if (total != expected) {
    std::fprintf(stderr,
                 "launch_overhead: reduction drift: got %f expected %f\n",
                 total, expected);
    rc = 1;
  }
  op2::finalize();
  if (rc == 0) {
    std::printf(
        "  gate: OK (no replay allocations, no plan lookups, "
        "0 allocs/node chain build)\n");
  }
  return rc;
}
